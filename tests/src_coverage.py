"""List the statements of `src/vdpfit` that a run never reaches.

    python tests/src_coverage.py
    python tests/src_coverage.py --chains SEED

Run from a checkout root. Without flags this runs the Tier-1 suite in process
(`pytest.main` on `tests/`) under a line tracer on every thread, which records
only frames of files in `src/vdpfit/`. It prints each statement no test
reaches as `file:line: source` and exits 1 when there is one or when pytest
fails. The statements are each module's `ast` statement lines, less
docstrings, `def` and `class` lines, imports and the body of
`if __name__ == "__main__":`.

With --chains SEED it instead traces `chain_outputs.run_chain` over the
benchmark's three workloads at SEED, with BLAS pinned to one thread as that
file pins it, and prints the statements no workload reaches: code the
benchmark never runs. That list is a report, so this mode exits 0. Pytest
does not collect this file.
"""
import ast
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

SRC = (Path.cwd() / "src" / "vdpfit").resolve()
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NOT_RUN = (*_DEFS, ast.Import, ast.ImportFrom)  # def, class and import lines


def _is_main_guard(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def statement_lines(source: str) -> set[int]:
    """The first line of each statement in `source` that a run can reach."""
    tree = ast.parse(source)
    left_out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and ast.get_docstring(node) is not None:
            left_out.add(node.body[0])
        if _is_main_guard(node):
            left_out.update(n for stmt in node.body for n in ast.walk(stmt))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _NOT_RUN)
            and node not in left_out}


def traced(run):
    """(run's result, {path: lines run}) for the frames of files in SRC."""
    hits, mine = defaultdict(set), {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = Path(name).resolve().parent == SRC
        return local if mine[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {Path(name).resolve(): lines for name, lines in hits.items()}


def unreached(hits) -> list[str]:
    """`file:line: source` of each statement in SRC that `hits` lacks."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        out += [f"{path.relative_to(Path.cwd())}:{n}: {lines[n - 1].strip()}"
                for n in sorted(statement_lines(source) - hits.get(path, set()))]
    return out


def _tier1() -> int:
    import pytest

    sys.path.insert(0, str(Path.cwd() / "src"))
    code, hits = traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "tests"]))
    missed = unreached(hits)
    print("\n".join(missed + [f"{len(missed)} statements unreached; pytest exited {int(code)}"]))
    return int(code != 0 or bool(missed))


def _chains(seed: int) -> int:
    def run():
        import chain_outputs  # pins BLAS threads before numpy is imported

        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in chain_outputs.WORKLOADS.items():
                chain_outputs.run_chain(workload, seed, Path(tmp) / name)

    _, hits = traced(run)
    missed = unreached(hits)
    print("\n".join(missed + [f"{len(missed)} statements reached by no workload at seed {seed}"]))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == []:
        return _tier1()
    if len(argv) == 2 and argv[0] == "--chains" and argv[1].isdigit():
        return _chains(int(argv[1]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
