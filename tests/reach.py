"""List the zakfiber functions that no command and no benchmark op reaches.

A tool, not a test (pytest does not collect it).  Under ``sys.setprofile``
it imports the package, runs the 210 golden CLI cases of
``tests/test_golden.py`` and then, for the given seed, one cycle of every
op of the four benchmark workloads and their probe ops, on scenarios that
``bench/gen.py`` writes into a temporary directory (``bench/`` itself is
left unchanged).  It prints, one per line and in source order, each
function or method defined in a zakfiber module whose code never ran.
Methods that ``dataclass`` or ``NamedTuple`` generate have no source in the
package and are skipped.  A summary goes to stderr.

    PYTHONPATH=src python tests/reach.py [--seed 1]
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import pkgutil
import sys
import tempfile
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


def _functions_of(member):
    """The plain functions behind a module or class attribute."""
    if isinstance(member, property):
        found = [member.fget, member.fset, member.fdel]
    elif isinstance(member, functools.cached_property):
        found = [member.func]
    elif isinstance(member, (staticmethod, classmethod)):
        found = [member.__func__]
    else:
        found = [inspect.unwrap(member) if callable(member) else member]
    return [f for f in found if type(f) is types.FunctionType]


def package_functions(package) -> list[tuple[str, object]]:
    """(dotted name, code) of every function and method with source in a
    module of ``package``, in source order."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            owners = [(name, obj)]
            if inspect.isclass(obj):
                owners = [(f"{name}.{attr}", m)
                          for attr, m in vars(obj).items()]
            for dotted, member in owners:
                for fn in _functions_of(member):
                    code = fn.__code__
                    if code.co_filename == module.__file__:
                        found.setdefault(code, f"{module.__name__}.{dotted}")
    order = sorted(found, key=lambda c: (c.co_filename, c.co_firstlineno))
    return [(found[code], code) for code in order]


def run_everything(seed: int) -> tuple[int, int, int]:
    """(golden cases, ops, ops whose checks failed) of one full run."""
    import gen
    import ops
    from test_golden import CASES, capture

    for case in CASES:
        capture(case)
    n_ops = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in gen.WORKLOADS:
            d = Path(tmp) / workload
            gen.generate(workload, seed, d)
            wl = ops.Workload(d)
            batches = [wl.scenario_ops(i) for i in range(len(wl.scenarios))]
            for batch in batches + [[op] for op in wl.probe_ops()]:
                state = {}
                for op in batch:
                    n_ops += 1
                    failed += bool(op.problems(op.run(state)))
    return len(CASES), n_ops, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the benchmark scenarios; default %(default)s")
    args = p.parse_args(argv)

    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(hook)
    try:
        import zakfiber

        cases, n_ops, failed = run_everything(args.seed)
    finally:
        sys.setprofile(None)
    functions = package_functions(zakfiber)
    unreached = [name for name, code in functions if code not in reached]
    print("\n".join(unreached))
    print(f"{len(unreached)} of {len(functions)} zakfiber functions "
          f"unreached by {cases} golden cases and {n_ops} ops of seed "
          f"{args.seed} ({failed} failed their checks)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
