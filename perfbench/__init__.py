"""Benchmark for shiftagg: workloads, outside-in tracing and the runner."""
