"""Compare the bytes of the ``qpwalk`` command between two source trees.

Usage: python tools/cli_bytes.py PARENT_TREE CHANGE_TREE

Runs every argv of a fixed grid as ``python -m qpwalk.cli ARGV`` in a fresh
process per tree, with ``PYTHONPATH=<tree>/src`` and the tree as working
directory, and compares stdout, stderr and the exit code (each tree's own
path reads as ``<tree>``). Prints how many argvs were compared, how many
differ and the first difference; exits 1 on any difference and 0 when every
argv is identical. The grid covers every experiment and every kernel path:
both step orders at both strides, the electric walk, the origin probe of one
walk and of noisy ensembles, and refused configurations (exit 2). It also
covers both paths of ``Field.angles`` (int64 residues and per-step angles,
float fields) and record blocks below, across and above the write size.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FIELDS = ("0", "1/2", "1/4", "1/7", "golden")
STARTS = ("-6", "-3", "-1", "0", "2")
SPINORS = ("1,0", "0,1", "1,1", "1,1j", "0.6,0.8j")
COINS = ("hadamard", "0.6,0.8j")
BIG_RATIONAL = "1000000000000000001/1000000000000000007"
M_TO_24 = ",".join(str(m) for m in range(1, 25))
EPSILONS = ("0.002,0,0.0005,0.01", "0.001,0.001", "0,0", "0.003", "0.0001,0.0005,0.001")


def grid() -> list[list[str]]:
    """The argvs compared, in a fixed order."""
    argvs = []
    # single-site starts on both sublattices: the origin probe, and evolve at stride 2
    for field, x0, spinor in itertools.product(FIELDS, STARTS, SPINORS):
        argvs.append(["bloch-trace", "--field", field, "--tmax", "200", f"--x0={x0}",
                      "--spinor", spinor])
    for (field, x0), spinor in zip(itertools.product(FIELDS, STARTS), itertools.cycle(SPINORS)):
        argvs.append(["evolve", "--field", field, "--tmax", "120", "--stride", "3",
                      f"--x0={x0}", "--spinor", spinor])
    argvs += [
        ["bloch-trace"],
        ["bloch-trace", "--tmax", "20", "--x0=-1", "--spinor", "1,1"],
        ["bloch-trace", "--coin", "0.6,0.8j", "--tmax", "500", "--format", "json"],
        ["bloch-trace", "--tmax", "1100"],  # blocks that straddle SPINOR_BLOCK rows
        ["evolve"],
        ["evolve", "--tmax", "1"],
        ["evolve", "--tmax", "1000", "--stride", "100"],
        ["evolve", "--coin", "0.6,0.8j"],
        ["evolve", "--field", "golden", "--tmax", "600", "--stride", "100"],
        ["evolve", "--field", "1/7", "--tmax", "300", "--stride", "13"],
        ["evolve", "--field", "golden", "--coin", "0.6,0.8j", "--tmax", "200", "--stride", "1",
         "--format", "json"],
        ["evolve", "--field", "1/7", "--coin", "i-sigma-y", "--tmax", "90", "--stride", "2"],
        # one record block per time slice, gathered into writes; float-field step angles
        ["evolve", "--stride", "1", "--tmax", "300"],
        ["evolve", "--stride", "1", "--tmax", "300", "--format", "json"],
        ["evolve", "--field", "0.3", "--tmax", "200", "--stride", "7"],
        # numerator * t passes 2**62 (per-step angles) or stays below it (int64 residues)
        ["evolve", "--field", BIG_RATIONAL, "--tmax", "300", "--stride", "50"],
        ["bloch-trace", "--field", BIG_RATIONAL, "--tmax", "300"],
        ["bloch-trace", "--field", "1000000000000001/1000000000000007", "--tmax", "300"],
        # the electric walk and the GAUGED_SZ rule
        ["gauge-check"],
        ["gauge-check", "--field", "golden", "--tmax", "120", "--trials", "5", "--seed", "3"],
        ["gauge-check", "--field", "1/7", "--coin", "0.6,0.8j", "--tmax", "80", "--trials", "4"],
        ["gauge-check", "--field", "0.3", "--format", "json"],
    ]
    for support, coin, field, eps in itertools.product(("pm1", "01"), COINS,
                                                       ("1/100", "golden", "1/7"), EPSILONS):
        argvs.append(["noise-series", "--noise-support", support, "--coin", coin,
                      "--field", field, "--epsilon", eps, "--tmax", "150", "--ensemble", "6"])
    argvs += [
        ["noise-series"],
        ["noise-series", "--tmax", "300", "--ensemble", "1"],
        ["noise-series", "--tmax", "300", "--ensemble", "4"],
        ["noise-series", "--tmax", "300", "--ensemble", "50"],
        ["noise-series", "--tmax", "700", "--ensemble", "130", "--epsilon", "0.001"],
        ["noise-series", "--tmax", "1"],
        ["noise-series", "--tmax", "200", "--ensemble", "5", "--format", "json"],
        ["noise-series", "--tmax", "5000", "--ensemble", "2"],  # a block above ROWS_PER_WRITE
        ["revival-scan"],
        ["revival-scan", "--m-list", "2,3,4,5,6,7", "--coin", "0.6,0.8j"],
        ["revival-scan", "--m-list", "3,5,8", "--coin", "0.6,0.8j", "--format", "json"],
        ["revival-scan", "--field", "golden", "--tmax", "30"],
        # the closed-form column beyond m = 12, on coins with |u| = |v| and the solvable coins
        *(["revival-scan", "--m-list", M_TO_24, "--coin", coin]
          for coin in ("0.28,-0.96j", "identity", "i-sigma-y")),
        ["trace-check"],
        ["trace-check", "--trials", "20", "--seed", "1", "--format", "json"],
        ["cf"],
        ["cf", "--field", "1/3"],
        ["cf", "--field", "golden", "--depth", "12", "--format", "json"],
        ["appendix-table"],
        ["appendix-table", "--m-list", "2,3,4"],
        ["appendix-table", "--m-list", M_TO_24],
        # refused configurations: exit 2
        ["evolve", "--field", "nan"],
        ["noise-series", "--epsilon", "1e308", "--tmax", "12"],
    ]
    return argvs


def run(tree: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``qpwalk ARGV`` from ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "qpwalk.cli", *argv], cwd=tree, env=env,
                          capture_output=True, timeout=600, check=False)
    own = str(tree).encode()
    return (done.returncode, done.stdout.replace(own, b"<tree>"),
            done.stderr.replace(own, b"<tree>"))


def difference(a: tuple[int, bytes, bytes], b: tuple[int, bytes, bytes]) -> str | None:
    """The first difference between two runs, or None when they are identical."""
    if a[0] != b[0]:
        return f"exit code {a[0]} != {b[0]}"
    for name, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        if x != y:
            for line, (p, q) in enumerate(itertools.zip_longest(x.splitlines(), y.splitlines())):
                if p != q:
                    return f"{name} line {line + 1}: {p!r} != {q!r}"
    return None


def main(args: list[str]) -> int:
    if len(args) != 2 or not all(Path(tree, "src", "qpwalk").is_dir() for tree in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(tree).resolve() for tree in args)
    argvs = grid()
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = list(pool.map(lambda argv: difference(run(parent, argv), run(change, argv)),
                              argvs))
    diffs = [(argv, diff) for argv, diff in zip(argvs, found) if diff is not None]
    print(f"{len(argvs)} argvs compared, {len(diffs)} differ")
    if diffs:
        argv, diff = diffs[0]
        print(f"first difference: qpwalk {' '.join(argv)}: {diff}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
