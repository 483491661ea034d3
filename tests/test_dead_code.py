"""src/flagchow holds only code that a program path reaches.

The benchmark tracer wraps functions by name, so each of its targets must
resolve; being one is not a caller.  Every definition must be named somewhere
else in src/, except the few listed as awaiting a caller; every method or
property of a class must be read as an attribute somewhere in src/ outside
its own body; every module-level assignment must be read somewhere in src/;
and every defaulted parameter of a module-level function, a method or a
class's `__init__` must be passed by some call in src/.

Names are not calls, so the program is also run: in a fresh process under
`sys.setprofile`, `cli.main` runs the README invocations (`verify --all`
among them), the benchmark's `cli_mix` calls and contract probe, and
`ENTRY_ROOTS`, and each name awaiting a caller is called once.  Every module-level function and
every method of a class in src/, dunders and properties included, must be
entered, except `__repr__` and the members of `UNENTERED`.  Running this
file prints the members never entered, one a line.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "flagchow")
PERFBENCH = os.path.join(HERE, os.pardir, "perfbench")

# cli.main dispatches to cli._cmd_<subcommand> by name
DISPATCHED_PREFIX = "_cmd_"
# tracer targets with no caller in src/ yet, each with the ROADMAP item that
# would give it one; paper data that only tests read lives in
# tests/oracles.py instead
AWAITING_CALLERS = {
    "normal_form": 12,      # ideal membership on the torus
    "series_to_json": 5,    # the hilbert and decompose payloads
    "sq_on_y": 6,           # moves to tests/oracles.py with its tracer target
    "poly_to_json": 6,      # moves to tests/oracles.py with its tracer target
}
# defaulted parameters no src/ call passes, kept on purpose
UNPASSED_PARAMETERS = {
    # the entry point: tests and the benchmark call main(argv, out)
    ("main", "argv"), ("main", "out"),
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module


def test_every_tracer_target_resolves(perfbench):
    tracer, run = perfbench("tracer"), perfbench("run")
    fc = {name: importlib.import_module("flagchow." + name)
          for name in run.FLAGCHOW_MODULES}
    for mod, fn, _, _ in tracer.TARGETS:
        assert callable(getattr(fc[mod], fn, None)), (mod, fn)
    for sub in tracer.CLI_SUBCOMMANDS:
        attr = DISPATCHED_PREFIX + sub.replace("-", "_")
        assert callable(getattr(fc["cli"], attr, None)), attr


def _parse_src():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname] = ast.parse(fh.read())
    return trees


def _unreferenced_definitions():
    """(file, line, name) of each def or class, dunders aside, whose name
    appears as no identifier, attribute or import in src/ outside its own
    body."""
    trees = _parse_src()
    defs, refs = [], []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((fname, node))
            elif isinstance(node, ast.Name):
                refs.append((fname, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((fname, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(fname, node.lineno, a.name) for a in node.names]
    out = []
    for fname, d in defs:
        if d.name.startswith("__") and d.name.endswith("__"):
            continue
        if not any(name == d.name and not (f == fname
                                           and d.lineno <= line <= d.end_lineno)
                   for f, line, name in refs):
            out.append((fname, d.lineno, d.name))
    return out


def test_every_definition_in_src_has_a_caller():
    unused = [(f, line, name) for f, line, name in _unreferenced_definitions()
              if name not in AWAITING_CALLERS
              and not name.startswith(DISPATCHED_PREFIX)]
    assert unused == []


def test_each_definition_awaiting_a_caller_is_an_uncalled_tracer_target(perfbench):
    # a listed name that gains a caller, or stops being traced, leaves the list
    targets = {fn for _, fn, _, _ in perfbench("tracer").TARGETS}
    unreferenced = {name for _, _, name in _unreferenced_definitions()}
    for name in AWAITING_CALLERS:
        assert name in targets and name in unreferenced, name


def _unread_members():
    """(file, class, name) of each method or property, dunders aside, that
    no src/ code reads as an attribute outside its own body."""
    trees = _parse_src()
    reads = [(fname, node.lineno, node.attr) for fname, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    out = []
    for fname, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))
                        and not any(name == fn.name and not (
                            f == fname and fn.lineno <= line <= fn.end_lineno)
                            for f, line, name in reads)):
                    out.append((fname, cls.name, fn.name))
    return out


def test_every_method_and_property_in_src_is_read_by_attribute():
    assert _unread_members() == []


def _unread_module_data():
    """(file, line, name) of each name a module-level assignment binds,
    dunders aside, that no src/ code reads as a name, an attribute or an
    import."""
    trees = _parse_src()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for name in (n for t in targets for n in ast.walk(t)):
                if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        and not (name.id.startswith("__") and name.id.endswith("__"))
                        and name.id not in read):
                    out.append((fname, node.lineno, name.id))
    return out


def test_every_module_level_datum_in_src_is_read():
    assert _unread_module_data() == []


def _passes(call, index, param):
    """Whether an ast.Call passes the parameter at position index (None if
    keyword-only) named param; *args and **kwargs pass every parameter."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def _callables(tree):
    """(function node, name it is called by, leading parameters a call does
    not pass) for each module-level function, each method (called by its
    own name, self or cls bound) and each `__init__` (called by its class's
    name).  Other dunders run through operators, never by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, node.name, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield fn, node.name, 1
                elif not (fn.name.startswith("__") and fn.name.endswith("__")):
                    yield fn, fn.name, 0 if static else 1


def _unpassed_parameters():
    """(file, function, parameter) of each defaulted parameter of a
    module-level function, method or `__init__` that no call in src/
    passes."""
    trees = _parse_src()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for fname, tree in trees.items():
        for fn, called_as, bound in _callables(tree):
            args = fn.args
            positional = (args.posonlyargs + args.args)[bound:]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(_passes(call, index, param)
                           for call in calls.get(called_as, ())):
                    out.append((fname, fn.name, param))
    return out


def test_every_defaulted_parameter_is_passed_by_a_caller():
    unpassed = [(f, fn, param) for f, fn, param in _unpassed_parameters()
                if (fn, param) not in UNPASSED_PARAMETERS]
    assert unpassed == []


# the paths that the README invocations, the cli_mix calls and the
# contract probe miss
ENTRY_ROOTS = [
    "-h",
    "hilbert --group F4 --prime 3 --maxdeg 20",     # a symbolic presentation
    "decompose --group Spin --rank 3 --prime 2 --maxdeg 20",
    "steenrod --group SO --rank 5 --prime 2 --op Sq2 --gen x3",  # on x
    "steenrod --group SO --rank 5 --prime 2 --op Sq2 --gen x4",  # on y
    "rost --n 1 --p 41",                            # a prime above 37
    "restrict --table e8-2-rost-restriction",
    "catalog --grop U",                             # a grammar error
]
# members no program path enters, kept on purpose; `__repr__` is exempt too
UNENTERED = {
    # same_ring and check_class compare rings built outside the catalog
    "ring.GradedVariable.__eq__",
    "ring.PolyRing.__eq__",
    # the benchmark's buchberger counter reads it
    "groebner.GroebnerBasis.__len__",
}


def _members():
    """{(file, first line of its code): module.name} of each module-level
    function and each method of a module-level class in src/; a decorated
    function's code starts at its first decorator."""
    out = {}
    for fname, tree in _parse_src().items():
        path = os.path.realpath(os.path.join(SRC, fname))
        module = fname[:-len(".py")]
        for node in tree.body:
            fns = [(node, "")] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                fns = [(fn, node.name + ".") for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
            for fn, prefix in fns:
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out[path, first] = "%s.%s%s" % (module, prefix, fn.name)
    return out


def _call_awaiting_callers():
    """Call each name of AWAITING_CALLERS once."""
    from flagchow import catalog, chow, groebner, serialize, steenrod
    model = catalog.lookup_model("SO_odd", 3, 2)
    pres = chow.chow_presentation(model)
    f = pres.ring.gen("t1", 2)
    groebner.normal_form(f, groebner.groebner(pres, 12))
    serialize.poly_to_json(f)
    serialize.series_to_json(chow.presentation_series(model, 12)[0])
    steenrod.sq_on_y(1, 1, 3)


def _unentered():
    """The members of src/ that the roots never enter, sorted.  The profile
    is off while the test modules load, so what they run is not counted."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    sys.setprofile(profile)
    try:
        cli = importlib.import_module("flagchow.cli")
        for fname in sorted(os.listdir(SRC)):
            if fname.endswith(".py") and fname != "__init__.py":
                importlib.import_module("flagchow." + fname[:-len(".py")])
    finally:
        sys.setprofile(None)
    import test_cli
    import workloads
    argvs = (test_cli.README_INVOCATIONS
             + [argv.split() for argv, _, _ in workloads.cli_mix_calls()
                + workloads.contract_probe_calls()]
             + [argv.split() for argv in ENTRY_ROOTS])
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv, out=io.StringIO())
        _call_awaiting_callers()
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(f), line) for f, line in entered}
    return sorted(name for key, name in _members().items() if key not in entered)


def test_the_program_enters_every_function_and_method_in_src():
    # a fresh process: the first call of a subcommand loads its modules
    src_root = os.path.realpath(os.path.join(SRC, os.pardir))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root, os.path.realpath(PERFBENCH), os.path.realpath(HERE)]))
    done = subprocess.run([sys.executable, os.path.realpath(__file__)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    unentered = done.stdout.split()
    assert [name for name in unentered if not name.endswith(".__repr__")
            and name not in UNENTERED] == []
    # a listed member that a root enters leaves the list
    assert UNENTERED <= set(unentered)


if __name__ == "__main__":
    print("\n".join(_unentered()))
