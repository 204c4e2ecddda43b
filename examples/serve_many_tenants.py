"""Multi-tenant solver service: dedup, shared artifacts, quotas, priorities.

N tenants fire mixed-priority requests at one in-process solver service.
Many of the requests are *identical* (same ``repro.cache/1`` signature and
runtime binding): the service coalesces those onto a single job, so one
solve — and one compiled artifact — serves every tenant that asked.  The
rest share the compiled artifact even when their answers differ (different
step counts bind the same generated code).  The script ends by reading the
``repro.serve/1`` status document and printing the dedup and warm-hit
rates it advertises.

Run:  python examples/serve_many_tenants.py [--tenants N] [--requests N]
      [--nx N] [--steps N]
"""

import argparse

import numpy as np

from repro.bte import build_bte_problem, hotspot_scenario
from repro.serve import serve_session


def make_problem(nx: int, nsteps: int):
    scenario = hotspot_scenario(nx=nx, ny=nx, ndirs=4, n_freq_bands=4,
                                dt=1e-12, nsteps=nsteps)
    problem, _ = build_bte_problem(scenario)
    return problem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--requests", type=int, default=4,
                    help="requests submitted per tenant")
    ap.add_argument("--nx", type=int, default=8)
    ap.add_argument("--steps", type=int, default=3)
    args = ap.parse_args()

    # request mix per tenant: mostly the same problem (dedup fodder), plus
    # one variant whose answer differs but whose generated code does not
    shapes = [(args.nx, args.steps)] * (max(args.requests - 1, 1)) \
        + [(args.nx, args.steps + 2)]
    priorities = ["normal", "high", "batch"]

    print(f"starting solver service for {args.tenants} tenant(s) x "
          f"{args.requests} request(s) ...")
    with serve_session(workers=2, queue_max=128) as service:
        client = service.client
        client.hold()  # stage the whole burst so requests truly overlap
        tickets = []
        for t in range(args.tenants):
            for r in range(args.requests):
                nx, nsteps = shapes[r % len(shapes)]
                tickets.append(client.submit(
                    make_problem(nx, nsteps),
                    tenant=f"tenant{t}",
                    priority=priorities[(t + r) % len(priorities)]))
        client.release()
        results = [ticket.result(300) for ticket in tickets]
        doc = client.status()

    # every tenant that asked the same question got the same bits back
    by_key: dict[str, list] = {}
    for res in results:
        by_key.setdefault(res.key, []).append(res)
    identical = all(
        all(np.array_equal(r.u, group[0].u) for r in group)
        for group in by_key.values())
    counters, cache = doc["counters"], doc["cache"]
    without_solve = counters["deduped"] + counters["results_reused"]
    dedup_rate = 100.0 * without_solve / max(1, counters["requests"])
    warm_rate = 100.0 * cache["memory_hits"] \
        / max(1, cache["memory_hits"] + cache["misses"])

    print(f"requests: {counters['requests']}  "
          f"distinct jobs solved: {counters['completed']}")
    print(f"in-flight dedup: {counters['deduped']}  "
          f"result reuse: {counters['results_reused']}")
    print(f"dedup rate: {dedup_rate:.1f}%")
    print(f"artifact builds: {cache['builds']}  "
          f"warm-hit rate: {warm_rate:.1f}%")
    print(f"results bit-identical within each job: {identical}")
    for name, state in sorted(doc["tenants"].items()):
        print(f"  {name}: submitted={state['submitted']} "
              f"deduped={state['deduped']} "
              f"hashtree root={state['hashtree']['root']}")


if __name__ == "__main__":
    main()
