"""Workloads: the paper's example programs, application-style physics
pipelines, and random generators for benchmarks and fuzz tests."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".figures": "FIGURES FigureWorkload figure_workload",
    ".generators": "parallel_chain_graph random_forall_program "
                   "random_layered_graph random_pe_source "
                   "random_pipe_program random_recurrence_program",
    ".physics": "WEATHER_STEP_SOURCE am_backed compile_weather_step "
                "initial_weather_state run_timesteps weather_state_map",
    ".programs": "DIAMOND_PIPE_SOURCE EXAMPLE1_SOURCE "
                 "EXAMPLE2_PAPER_LITERAL_SOURCE EXAMPLE2_SOURCE FIG2_SOURCE "
                 "FIG3_SOURCE FIG4_SOURCE FIG5_SOURCE PREFIX_SUM_SOURCE "
                 "SOURCES",
})
