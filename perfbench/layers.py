"""The per-layer metrics of the traced run, and what each should move.

Each row is (name, unit, better, end-to-end metric and workload it
should move).  The names are `<module>.<function>.<field>`; `self_s` is
time in the function minus time in wrapped callees, `total_s` includes
them.  `BENCHMARK.json` lists the same names, units and directions.
"""

from __future__ import annotations

from tracer import Stat

# Shares are of the traced in-process pass of the named workload (seed 1,
# 2-core Linux, Python 3.11).
_CGRAPH_ALL = "wall_norm_s on analyze (~95%) and verify (~20%); none on census"
_OBTF = "wall_norm_s on census (~18%); little on verify; none on analyze"
_DP = "wall_norm_s and peak_rss_mb on census (elementary ~40%, functions ~13%); less on verify"
_CACHE = "wall_norm_s on census, cold pass versus warm pass"
_CLOSURE = "wall_norm_s on verify (~5% each); little on analyze"
_ENUM = "wall_norm_s on verify"
_VERIFY = "wall_norm_s on verify"
_BB = "wall_norm_s on analyze (a few %); less on verify"

METRICS = (
    ("cgraph.posets_of_graph.calls", "count", "lower", _CGRAPH_ALL),
    ("cgraph.posets_of_graph.self_s", "s", "lower", _CGRAPH_ALL),
    ("cgraph.posets_of_graph.space", "count", "lower", _CGRAPH_ALL),
    ("cgraph.posets_of_graph.found", "count", "higher", _CGRAPH_ALL),
    ("cgraph.posets_of_graph.found_ratio", "fraction", "higher", _CGRAPH_ALL),
    ("cgraph.enumerate_colored_graphs.yielded", "count", "lower", _ENUM),
    ("cgraph.enumerate_colored_graphs.self_s", "s", "lower", _ENUM),
    ("cgraph.is_obtf.calls", "count", "lower", _ENUM),
    ("cgraph.is_obtf.self_s", "s", "lower", _ENUM),
    ("cgraph.gamma.self_s", "s", "lower", _BB),
    ("cgraph.kappa.self_s", "s", "lower", _BB),
    ("cgraph.find_blue_bipartition.calls", "count", "lower", _BB),
    ("cgraph.find_blue_bipartition.self_s", "s", "lower", _BB),
    ("cgraph.find_odd_nonsimple_walk.self_s", "s", "lower", _VERIFY),
    ("cgraph.bipartition_sweep.self_s", "s", "lower", _VERIFY),
    ("census.count_obtf.self_s", "s", "lower", _OBTF),
    ("census.count_obtf.graphs_per_s", "1/s", "higher", _OBTF),
    ("census.count_functions.self_s", "s", "lower", _DP),
    ("census.count_elementary.self_s", "s", "lower", _DP),
    ("census.strict_orders.yielded", "count", "lower", "wall_norm_s on census (~12%)"),
    ("census.strict_orders.self_s", "s", "lower", "wall_norm_s on census (~12%)"),
    ("census.count_bb.self_s", "s", "lower", "wall_norm_s on census"),
    ("census.CensusCache.load.self_s", "s", "lower", _CACHE),
    ("census.CensusCache.append.calls", "count", "lower", _CACHE),
    ("census.CensusCache.append.self_s", "s", "lower", _CACHE),
    ("census.count_pn.total_s", "s", "lower", _ENUM),
    ("census.verify_identities.total_s", "s", "lower", _VERIFY),
    ("litposet.is_pn_member.calls", "count", "lower", _CLOSURE),
    ("litposet.is_pn_member.self_s", "s", "lower", _CLOSURE),
    ("litposet.transitive_closure.calls", "count", "lower", _CLOSURE),
    ("litposet.transitive_closure.self_s", "s", "lower", _CLOSURE),
    ("litposet.enumerate_pn.self_s", "s", "lower", _ENUM),
    ("litposet.enumerate_pn_oracle.self_s", "s", "lower", _ENUM),
    ("litposet.format_poset.self_s", "s", "lower", _ENUM),
    ("boolfn.is_median_closed.calls", "count", "lower", _VERIFY),
    ("boolfn.is_median_closed.self_s", "s", "lower", _VERIFY),
    ("boolfn.truth_table.self_s", "s", "lower", _VERIFY),
    ("verify.check_partition_law.total_s", "s", "lower", _VERIFY),
    ("verify.check_walks.total_s", "s", "lower", _VERIFY),
    ("verify.check_engine_agreement.total_s", "s", "lower", _VERIFY),
    ("verify.check_pn_oracle.total_s", "s", "lower", _VERIFY),
    ("verify.check_bb_coherence.total_s", "s", "lower", _VERIFY),
    ("verify.check_roundtrip.total_s", "s", "lower", _VERIFY),
    ("cli.main.self_s", "s", "lower", "wall_norm_s on all workloads; setup_s through import cost"),
    ("cli.stdout_bytes", "bytes", "lower", "wall_norm_s on every workload (output volume)"),
    ("trace.overhead_ratio", "ratio", "lower", "health of the trace: traced / untraced wall"),
    ("trace.unattributed_s", "s", "lower", "health of the trace: wall outside every span"),
)

# The traced run wraps only `main` in the CLI, so parsing, dispatch and
# output formatting count as its self time.
ONLY = {"cli": {"main"}}


def _posets_probe(stat: Stat, args: tuple, result) -> None:
    stat.add("space", 1 << args[0].edge_count())
    stat.add("found", len(result))


def _obtf_probe(stat: Stat, args: tuple, result) -> None:
    stat.add("graphs", result.value)


PROBES = {"cgraph.posets_of_graph": _posets_probe, "census.count_obtf": _obtf_probe}


def values(stats: dict[str, Stat], traced_s: float, untraced_s: float,
           stdout_bytes: int) -> dict[str, float]:
    """Every metric in METRICS from the tracer's stats; 0 for functions
    the workload never called."""
    def get(key: str, field: str):
        st = stats.get(key, Stat())
        return getattr(st, field) if hasattr(st, field) else st.extra.get(field, 0)

    derived = {
        "cgraph.posets_of_graph.found_ratio": lambda: (
            get("cgraph.posets_of_graph", "found")
            / max(1, get("cgraph.posets_of_graph", "space"))),
        "census.count_obtf.graphs_per_s": lambda: (
            get("census.count_obtf", "graphs") / get("census.count_obtf", "self_s")
            if get("census.count_obtf", "self_s") else 0.0),
        "cli.stdout_bytes": lambda: stdout_bytes,
        "trace.overhead_ratio": lambda: traced_s / untraced_s,
        "trace.unattributed_s": lambda: traced_s - sum(s.self_s for s in stats.values()),
    }
    out = {}
    for name, _unit, _better, _moves in METRICS:
        if name in derived:
            out[name] = derived[name]()
        else:
            key, field = name.rsplit(".", 1)
            out[name] = get(key, field)
    return out
