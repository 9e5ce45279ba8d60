"""Crossover tables for the critical-window scaling functions.

Tabulates i_arg (arc windows) and i_mod (modulus windows) on log-spaced
grids, next to the finite-N ratio exact_variance / prediction at matched
scale, and -- for the arc case -- the scaling function implied by the exact
variance itself, G(x) = Var * pi^{3/2} / sqrt(N) at arc length x / sqrt(N).
The implied-G column is the empirical arbiter where the closed form and the
exact sum disagree away from the two limits.
"""

import argparse
import math

from ginfluct.angular import ArcWindow, angular_count_var
from ginfluct.asymptotics import count_var_prediction, i_arg, i_mod
from ginfluct.radial import radial_count_var


def arc_table(n: int, points: list[float]) -> None:
    print(f"# arc windows at N={n}: x = sqrt(N) * length")
    print("x,i_arg,implied_G,exact_over_pred")
    for x in points:
        length = x / math.sqrt(n)
        var = angular_count_var(n, ArcWindow.symmetric(length))
        implied = var * math.pi**1.5 / math.sqrt(n)
        rep = count_var_prediction(n, ArcWindow.symmetric(length), "angular")
        print(f"{x!r},{i_arg(x)!r},{implied!r},{rep.ratio!r}")


def mod_table(n: int, points: list[float], a: float) -> None:
    print(f"# modulus windows at N={n}, left endpoint a={a}: x = sqrt(N) * (b - a)")
    print("x,i_mod,implied_G,exact_over_pred")
    for x in points:
        b = a + x / math.sqrt(n)
        var = radial_count_var(n, a, b)
        implied = var * math.sqrt(math.pi) / (math.sqrt(n) * a)
        rep = count_var_prediction(n, (a, b), "radial")
        print(f"{x!r},{i_mod(x)!r},{implied!r},{rep.ratio!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2**14,
                    help="matrix size for the finite-N columns")
    ap.add_argument("--a", type=float, default=0.4,
                    help="left endpoint for modulus windows")
    args = ap.parse_args()

    points = [0.01, 0.03, 0.1, 0.3, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0]
    arc_table(args.n, points)
    print()
    mod_table(args.n, points, args.a)
    print()
    print("# plateaus of the closed forms")
    print(f"# i_arg: {i_arg(1e6)!r} at 1e6, {i_arg(1e12)!r} at 1e12 (limit 1)")
    print(f"# i_mod: {i_mod(50.0)!r} at 50, {i_mod(1e4)!r} at 1e4 (limit 2)")


if __name__ == "__main__":
    main()
