"""Outside-in span tracer for flagchow.

Wrappers are installed from outside the program, around the public
functions of each module.  A function imported by name into another module
(`from .groebner import normal_form`) is replaced in every flagchow module
that holds it, so calls through any namespace are seen.  Spans stay in
memory as [name, start, end, parent, job] and are written out at the end.
The tracer assumes one thread: the parent of a span is the span open when
it starts.
"""

import collections
import json
import time


def _count_normal_form(counts, args, result):
    counts["groebner.normal_form.terms_in"] += len(args[0].terms)
    counts["groebner.normal_form.terms_out"] += len(result.terms)


def _count_hilbert_series(counts, args, result):
    counts["groebner.hilbert_series.std_monomials"] += sum(result.dims)


def _count_buchberger(counts, args, result):
    counts["groebner.buchberger.basis_out"] += len(result)


def _count_mul(counts, args, result):
    counts["ring.mul.terms_out"] += len(result.terms)


# (module, function, span name, counter); every public function a workload
# reaches, grouped by the layer named in its span
TARGETS = (
    ("groebner", "normal_form", "groebner.normal_form", _count_normal_form),
    ("groebner", "hilbert_series", "groebner.hilbert_series", _count_hilbert_series),
    ("groebner", "buchberger", "groebner.buchberger", _count_buchberger),
    ("symclass", "t_ring", "symclass.t_ring", None),
    ("symclass", "elementary_symmetric", "symclass.elementary_symmetric", None),
    ("symclass", "pontryagin_class", "symclass.pontryagin_class", None),
    ("symclass", "lucas_binomial", "symclass.lucas_binomial", None),
    ("catalog", "lookup_model", "catalog.lookup_model", None),
    ("catalog", "validate_catalog", "catalog.validate_catalog", None),
    ("chow", "chow_presentation", "chow.chow_presentation", None),
    ("chow", "verify_additive_decomposition",
     "chow.verify_additive_decomposition", None),
    ("torsion", "torsion_index", "torsion.torsion_index", None),
    ("torsion", "torsion_index_so", "torsion.torsion_index_so", None),
    ("torsion", "build_integral_flag_ring", "torsion.build_integral_flag_ring",
     None),
    ("torsion", "witness_product", "torsion.witness", None),
    ("steenrod", "sq_on_so_generator", "steenrod.sq_on_so_generator", None),
    ("steenrod", "sq_on_y", "steenrod.sq_on_y", None),
    ("steenrod", "sq_hits", "steenrod.sq_hits", None),
    ("steenrod", "q_milnor", "steenrod.q_milnor", None),
    ("steenrod", "beta_preimage", "steenrod.beta_preimage", None),
    ("steenrod", "derive_q1_check", "steenrod.derive_q1_check", None),
    ("serialize", "presentation_to_json", "serialize.presentation_to_json", None),
    ("serialize", "basis_to_json", "serialize.basis_to_json", None),
    ("serialize", "poly_to_json", "serialize.poly_to_json", None),
    ("serialize", "series_to_json", "serialize.series_to_json", None),
    ("cli", "main", "cli.main", None),
)

# argparse dispatches to these through module globals read on every `main`
CLI_SUBCOMMANDS = ("catalog", "present", "hilbert", "rost", "restrict",
                   "decompose", "torsion-index", "steenrod", "verify")


class Tracer:
    """Records spans around flagchow's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, fn, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, new)

    def install(self, fc):
        """Install every wrapper; `fc` maps module names to flagchow modules."""
        modules = list(fc.values())
        for mod_name, fn_name, span, counter in TARGETS:
            fn = getattr(fc[mod_name], fn_name)
            if fn_name == "torsion_index_so":
                new = self.wrap(span, _with_monomial_count(fn, self.counts))
            else:
                new = self.wrap(span, fn, counter)
            self._replace_everywhere(modules, fn, new)
        poly = fc["ring"].Polynomial
        self._replace(poly, "__mul__",
                      self.wrap("ring.mul", poly.__mul__, _count_mul))
        cli = fc["cli"]
        for sub in CLI_SUBCOMMANDS:
            attr = "_cmd_" + sub.replace("-", "_")
            self._replace(cli, attr, self.wrap("cli." + sub, getattr(cli, attr)))
        verify = fc["verify"]
        self._replace(verify, "CASES", tuple(
            (case, self.wrap("verify.case." + case, fn))
            for case, fn in verify.CASES))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path):
        """One JSON array [name, start, end, parent, job] per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _with_monomial_count(fn, counts):
    """torsion_index_so, asked for its details so the walk's monomial count
    is seen whichever way the caller asked."""
    def call(l, return_details=False):
        value, details = fn(l, return_details=True)
        counts["torsion.monomials_checked"] += details["monomials_checked"]
        return (value, details) if return_details else value
    return call


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = collections.defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
