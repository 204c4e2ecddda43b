"""End-to-end benchmark: steady-state step time, served-job latency and a
per-layer trace on four workloads (see README.md and /BENCHMARK.json)."""
