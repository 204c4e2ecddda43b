"""Fault injector semantics and the comm layer's recovery protocol."""

import numpy as np
import pytest

from repro.runtime.comm import World
from repro.runtime.executor import run_spmd
from repro.runtime.faults import NULL_INJECTOR, FaultInjector, fault_run, parse_fault_spec
from repro.runtime.resilience import RetryPolicy
from repro.util.context import current
from repro.util.errors import CommFaultError, FaultSpecError


class TestSpecGrammar:
    def test_parses_rules_and_keys(self):
        rules = parse_fault_spec(
            "drop:rank=0,dest=1,tag=7,at=2;stall:rank=2,delay=5e-4;oom:device=gpu1,op=h2d"
        )
        assert [r.kind for r in rules] == ["drop", "stall", "oom"]
        assert (rules[0].rank, rules[0].dest, rules[0].tag, rules[0].at) == (0, 1, 7, 2)
        assert rules[1].delay_s == pytest.approx(5e-4)
        assert (rules[2].device, rules[2].op) == ("gpu1", "h2d")

    @pytest.mark.parametrize("spec", [
        "explode:rank=0",          # unknown kind
        "drop:rank",               # missing '='
        "drop:rank=zero",          # non-integer value
        "drop:sender=0",           # unknown key
        "drop:p=1.5",              # probability outside [0, 1]
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_describe_roundtrips_filters(self):
        (rule,) = parse_fault_spec("oom:device=gpu0,op=launch,at=3")
        assert rule.describe() == "oom:device=gpu0,op=launch,at=3"


class TestInjectorTriggering:
    def test_at_fires_on_nth_occurrence_only(self):
        inj = FaultInjector("drop:rank=0,dest=1,at=3")
        hits = [inj.message_fault(0, 1, 7) is not None for _ in range(5)]
        assert hits == [False, False, True, False, False]

    def test_filters_do_not_consume_occurrences(self):
        inj = FaultInjector("drop:rank=0,dest=1,at=1")
        assert inj.message_fault(1, 0, 7) is None  # wrong direction: no match
        assert inj.message_fault(0, 1, 7) is not None  # still the 1st occurrence

    def test_count_limits_firings(self):
        inj = FaultInjector("drop:rank=0,count=2")
        fired = sum(inj.message_fault(0, 1, 7) is not None for _ in range(6))
        assert fired == 2

    def test_count_zero_is_unlimited(self):
        inj = FaultInjector("drop:rank=0,count=0")
        assert all(inj.message_fault(0, 1, 7) is not None for _ in range(6))

    def test_probabilistic_rules_are_seed_deterministic(self):
        def decisions(seed):
            inj = FaultInjector("drop:p=0.5,count=0", seed=seed)
            return [inj.message_fault(0, 1, 7) is not None for _ in range(64)]

        assert decisions(11) == decisions(11)
        assert any(decisions(11)) and not all(decisions(11))

    def test_device_and_stall_queries(self):
        inj = FaultInjector("oom:device=gpu1,op=h2d;stall:rank=2,delay=3e-4")
        assert inj.device_fault("gpu0:A6000", "h2d") is None
        assert inj.device_fault("gpu1:A6000", "launch") is None
        assert inj.device_fault("gpu1:A6000", "h2d") == "oom"
        assert inj.stall_seconds(0) == 0.0
        assert inj.stall_seconds(2) == pytest.approx(3e-4)

    def test_state_roundtrip_resumes_rng_and_triggers(self):
        inj = FaultInjector("drop:p=0.5,count=0", seed=5)
        head = [inj.message_fault(0, 1, 7) is not None for _ in range(10)]
        snapshot = inj.state_dict()
        tail = [inj.message_fault(0, 1, 7) is not None for _ in range(20)]

        resumed = FaultInjector("drop:p=0.5,count=0", seed=5)
        resumed.load_state(snapshot)
        assert resumed.rules[0].occurrences == 10
        replay = [resumed.message_fault(0, 1, 7) is not None for _ in range(20)]
        assert replay == tail
        assert head  # silence unused warning-by-review: head exercised the RNG


class TestFaultRunContext:
    def test_installs_and_restores_injector(self):
        assert current().injector is NULL_INJECTOR
        with fault_run("drop:rank=0", seed=1) as inj:
            assert current().injector is inj
            assert inj.enabled
        assert current().injector is NULL_INJECTOR

    def test_resets_resilience_log_by_default(self):
        """Every block gets a fresh log; the enclosing one is back after."""
        with fault_run(None):
            outer = current().resilience
            outer.record_retry()
            with fault_run(None):
                assert current().resilience is not outer
                assert not current().resilience.has_events()
            assert current().resilience is outer and outer.retries == 1

    def test_null_spec_keeps_injection_disabled(self):
        with fault_run(None):
            assert not current().injector.enabled


class TestCommRecovery:
    def payloads(self):
        return [np.full(4, 10.0 * (k + 1)) for k in range(3)]

    def run_pair(self, spec, seed=0):
        """Rank 0 streams three arrays to rank 1; return what rank 1 saw."""
        def prog(comm):
            if comm.rank == 0:
                for data in self.payloads():
                    comm.send(1, data)
                return None
            return [comm.recv(0)[0] for _ in range(3)]

        with fault_run(spec, seed=seed):
            received = run_spmd(2, prog).results[1]
            log = current().resilience
            return received, log

    def test_dropped_message_is_redelivered_in_order(self):
        received, log = self.run_pair("drop:rank=0,dest=1,at=2")
        assert received == [10.0, 20.0, 30.0]
        assert log.injected == {"drop": 1}
        assert log.retries >= 1 and log.recovered >= 1

    def test_drop_of_first_message_survives_overtaking(self):
        # later sends overtake the lost seq 1; the reorder buffer must hold
        # them while the re-send fills the gap
        received, log = self.run_pair("drop:rank=0,dest=1,at=1")
        assert received == [10.0, 20.0, 30.0]
        assert log.recovered >= 1

    def test_duplicate_is_discarded_by_seq_dedup(self):
        received, log = self.run_pair("dup:rank=0,dest=1,at=1")
        assert received == [10.0, 20.0, 30.0]
        assert log.injected == {"dup": 1}
        assert log.duplicates_dropped >= 1

    def test_delay_charges_virtual_time_only(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(2))
                return 0.0
            comm.recv(0)
            return comm.clock.now()

        with fault_run("delay:rank=0,dest=1,at=1,delay=2e-3"):
            res = run_spmd(2, prog)
        assert res.results[1] >= 2e-3

    def test_stall_charges_the_stalled_rank(self):
        def prog(comm):
            comm.compute(1e-6)
            return comm.clock.now()

        with fault_run("stall:rank=1,at=1,delay=7e-4"):
            res = run_spmd(2, prog)
        assert res.results[0] < 1e-4  # only rank 1 stalls
        assert res.results[1] >= 7e-4

    def test_retry_budget_exhaustion_raises_typed_error(self):
        # injection enabled (slow path) but nothing is ever sent: the
        # receiver must give up after max_retries, not hang for the
        # world's 60 s deadlock guard
        world = World(2)
        comm = world.communicator(1)
        comm.retry_policy = RetryPolicy(max_retries=2, wall_timeout_s=0.005)
        with fault_run("drop:rank=9"):
            with pytest.raises(CommFaultError, match="retries"):
                comm.recv(0)

    def test_fault_free_runs_skip_the_retry_machinery(self):
        received, log = self.run_pair(None)
        assert received == [10.0, 20.0, 30.0]
        assert not log.has_events()
