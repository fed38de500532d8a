"""Run the benchmark's three command chains and keep every file they write.

    python tests/chain_outputs.py SEED OUT

Run from a checkout root: this imports `src/vdpfit` and
`perfbench/workloads.py` from the working directory. For each workload it
writes the inputs with `setup(SEED, OUT/<name>/in)`, runs the command chain
through `vdpfit.cli.main` into `OUT/<name>/out`, and asserts that each
command exits 0 and that its check finds nothing. Each command's argv and
stdout go to `OUT/<name>/stdout.txt`, with OUT written as `<OUT>`, so two
runs into different directories compare with `diff -r`. BLAS runs one thread.

Two runs at one seed, in separate processes (so with different string hash
seeds), must give identical trees; so must a run of a change and of its
parent when the change claims byte-identical outputs. Pytest does not collect
this file.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):  # perfbench/run.py's list
    os.environ[_var] = "1"  # before numpy is imported

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "perfbench")]

from vdpfit import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_chain(workload, seed: int, out: Path) -> str:
    """Set up and run one workload's chain under `out`; returns its transcript."""
    (out / "in").mkdir(parents=True)
    inputs = workload.setup(seed, out / "in")
    lines = []
    for argv, check in workload.commands(inputs, out / "out"):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        assert code == 0, f"vdpfit {' '.join(argv)} exited with {code}"
        problems = check()
        assert not problems, problems
        lines.append(f"$ vdpfit {' '.join(argv)}\n{sink.getvalue()}")
    return "".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed, out = int(argv[0]), Path(argv[1]).resolve()
    out.mkdir(parents=True)  # not an existing tree, which could hide a missing output
    for name, workload in WORKLOADS.items():
        transcript = run_chain(workload, seed, out / name)
        (out / name / "stdout.txt").write_text(transcript.replace(str(out), "<OUT>"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
