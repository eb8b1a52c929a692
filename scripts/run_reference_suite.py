#!/usr/bin/env python3
"""Reproduce the reference expander portraits and their diagnostics.

Solves the small-angle equivariant expander family for several boundary
angles, prints the shooting parameters and far-field coefficients, then
runs the monitoring-quantity diagnostics on the exact constant-angle
branch.  Writes CSV artifacts under --out (default ./reference-out).
Exits 1 when a fitted first coefficient c1 misses the far-field recursion
by more than 2% (acceptance criterion 3).
"""

import argparse
import pathlib
import sys

import numpy as np

from hmfx import solve_corot, save_profile_csv
from hmfx.asymptotics import hmf_coefficients
from hmfx.boundary import corotational_map
from hmfx.corotational import shoot_hm
from hmfx.diagnostics import (bochner_check, energy_inequality_report,
                              eps_regularity_scan, monotonicity_table,
                              pohozaev_residual)
from hmfx.solutions import equator_solution, from_shooting


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("reference-out"))
    ap.add_argument("--n", type=int, default=3)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print("== equivariant expander family ==")
    c1_misses = []
    for h_inf in (0.05, 0.1, 0.2, 0.3):
        res = solve_corot(args.n, h_inf)
        # the angle h = atan2(p, q) of U = (p omega, q) moves by
        # p1 cos h - q1 sin h at order r^-2
        p1, q1 = hmf_coefficients(corotational_map(h_inf, args.n), 1,
                                  n=args.n).coefficients[1]
        pred = p1 * np.cos(h_inf) - q1 * np.sin(h_inf)
        rel = abs(res.farfield_coeff - pred) / abs(pred)
        print(f"h_inf={h_inf:4.2f}  slope={res.slope:+.6f}  "
              f"c1={res.farfield_coeff:+.6f}  (predicted {pred:+.6f}, "
              f"error {100 * rel:.2f}%)  residual={res.residual_sup:.2e}")
        save_profile_csv(res.profile, args.out / f"profile_h{h_inf:g}.csv")
        if rel > 0.02:
            c1_misses.append(h_inf)

    print("\n== constant-angle branch diagnostics ==")
    sol = equator_solution()
    x0 = np.array([10.0, 0.0, 0.0])
    table = monotonicity_table(sol, (x0, 1.0), np.linspace(0.05, 0.45, 9))
    print(f"monotonicity: max violation {table.max_phi_violation:.2e} "
          f"(budget {table.budget:.2e}, flagged={table.phi_flagged})")
    scan = eps_regularity_scan(sol, [np.array([r, 0.0, 0.0])
                                     for r in (5.0, 10.0, 20.0)])
    for v in scan:
        print(f"probe |x0|={np.linalg.norm(v.center):4.1f}  "
              f"Psi={v.psi_value:.2e}  flagged={v.flagged}  "
              f"verified={v.verified}")
    boch = bochner_check(sol, np.array([[r, 0.0, 0.0] for r in (5.0, 10.0, 20.0)]))
    print(f"bochner ratio: {boch.max_ratio:+.6f} (exact constant-angle value -2)")
    poho = pohozaev_residual(sol, x0)
    print(f"pohozaev residual: {poho.residual:.2e}")
    rep = energy_inequality_report(sol, x0)
    print(f"energy inequality excesses: "
          f"{', '.join(f'{e:.2e}' for e in rep.excesses)} "
          f"(monotone={rep.excess_monotone})")

    print("\n== small-angle shooting map ==")
    for a in (0.02, 0.05, 0.1):
        res = shoot_hm(args.n, a)
        print(f"a={a:5.3f} -> h_inf={res.h_inf:+.6f}  "
              f"residual={res.residual_sup:.2e}")

    if c1_misses:
        print(f"\nFAIL: fitted c1 off the recursion by more than 2% at "
              f"h_inf = {c1_misses}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
