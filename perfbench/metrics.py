"""Metric names, units and how the per-layer ones come out of the spans.

BENCHMARK.json lists the same names; `selftest.py` checks that they agree.
"""

import collections
import statistics

from tracer import CLI_SUBCOMMANDS, self_times
from workloads import CLI_MIX_VERIFY_CASES

END_TO_END = (
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


PER_LAYER = (
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.mul.terms_out", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.normal_form.terms_in", "count"),
    ("groebner.normal_form.terms_out", "count"),
    ("groebner.hilbert_series.calls", "count"),
    ("groebner.hilbert_series.self_s", "s"),
    ("groebner.hilbert_series.std_monomials", "count"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.buchberger.basis_out", "count"),
    ("symclass.calls", "count"),
    ("symclass.self_s", "s"),
    ("catalog.lookup_model.calls", "count"),
    ("catalog.lookup_model.self_s", "s"),
    ("catalog.validate_catalog.self_s", "s"),
    ("chow.chow_presentation.calls", "count"),
    ("chow.chow_presentation.self_s", "s"),
    ("chow.verify_additive_decomposition.self_s", "s"),
    ("torsion.self_s", "s"),
    ("torsion.torsion_index_so.calls", "count"),
    ("torsion.torsion_index_so.self_s", "s"),
    ("torsion.build_integral_flag_ring.self_s", "s"),
    ("torsion.monomials_checked", "count"),
    ("torsion.witness.self_s", "s"),
    ("steenrod.calls", "count"),
    ("steenrod.self_s", "s"),
    ("serialize.calls", "count"),
    ("serialize.self_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple(("cli.%s.p50_ms" % sub, "ms") for sub in CLI_SUBCOMMANDS) + tuple(
    ("verify.case.%s.s" % case, "s") for case in CLI_MIX_VERIFY_CASES) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, counts, scales):
    """Per-layer metrics, each per traced pass, over all passes.

    `scales[i]` turns a time of pass i into reference speed; every time is
    scaled by it.  `<span or layer>.calls` and `.self_s` sum over the spans
    of that name or under that layer prefix; `.s` sums inclusive durations;
    `.p50_ms` is the median inclusive duration of one call; other names are
    counters.  The `trace.` metrics are left to the caller.
    """
    passes = len(scales)
    calls = collections.Counter()
    self_s = collections.Counter()
    durations = collections.defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        scale = scales[span[4][0]]
        for key in (name, name.split(".", 1)[0]):
            calls[key] += 1
            self_s[key] += own * scale
        durations[name].append((span[2] - span[1]) * scale)

    def value(name):
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            return calls[base] / passes
        if stat == "self_s":
            return self_s[base] / passes
        if stat == "s":
            return sum(durations[base]) / passes
        if stat == "p50_ms":
            return 1000 * statistics.median(durations[base]) if durations[base] else 0.0
        return counts[name] / passes

    return {name: value(name) for name, _ in PER_LAYER
            if not name.startswith("trace.")}


def design_shares(layers):
    """Shares of the traced pass that each workload is meant to stress."""
    wall = layers["trace.wall_s"]
    return {
        "torsion+normal_form+ring.mul self / pass": (
            layers["torsion.self_s"] + layers["groebner.normal_form.self_s"]
            + layers["ring.mul.self_s"]) / wall,
        "hilbert_series self / pass": layers["groebner.hilbert_series.self_s"] / wall,
    }
