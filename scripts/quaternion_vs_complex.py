"""Quaternion vs complex counting variance at matched (N, window).

Two finite-size heuristics disagree about this comparison: asymptotic
equivalence of the two ensembles suggests ratio -> 1, while the halved
number of modulus degrees of freedom (shapes 2, 4, ..., 2N instead of
1, 2, ..., N at doubled scale) suggests a 1/sqrt(2) deficit for the
quaternion ensemble.  The exact variances decide: per factor the
probability of the window times that of its outside, both sums of the
pieces the window edges cut.  This script prints the measured ratio over
an N grid for fixed and critically scaled windows.
"""

import argparse
import math

from ginfluct.radial import Ensemble, radial_count_var


def table(ns: list[int], a: float, b: float | None) -> None:
    label = f"[{a}, {b}]" if b is not None else f"[{a}, a + 2/sqrt(N)]"
    print(f"# window {label}")
    print("n,var_complex,var_quaternion,ratio_q_over_c")
    for n in ns:
        hi = b if b is not None else a + 2.0 / math.sqrt(n)
        vc = radial_count_var(n, a, hi)
        vq = radial_count_var(n, a, hi, Ensemble.QUATERNION)
        print(f"{n},{vc:.6f},{vq:.6f},{vq / vc:.6f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.4)
    ap.add_argument("--b", type=float, default=0.8)
    args = ap.parse_args()

    ns = [64, 256, 1024, 4096, 16384, 65536]
    table(ns, args.a, args.b)
    print()
    table(ns, args.a, None)


if __name__ == "__main__":
    main()
