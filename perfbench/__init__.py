"""Benchmark of the arraycal simulator: pinned workloads, output checks, traced layer costs."""
