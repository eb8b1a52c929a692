#!/usr/bin/env python3
"""Contraction study for the fixed-point construction.

Runs the Picard iteration on the caloric first approximation of a
corotational boundary map for a path of boundary-shrinking parameters
sigma, reporting contraction ratios, the final static-equation residual
and the weighted decay of the correction.
"""

import argparse

from hmfx.boundary import corotational_map
from hmfx import fixedpoint


def _slope(value):
    """A fitted decay slope, or n/a where the tail is too small to fit."""
    return "n/a" if value is None else f"{value:+.2f}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--h-inf", type=float, default=0.1)
    ap.add_argument("--K", type=float, default=10.0)
    ap.add_argument("--sigmas", type=float, nargs="+",
                    default=[1.0, 0.9, 0.5, 0.0])
    args = ap.parse_args()

    u0 = corotational_map(args.h_inf)
    radial, sphere = fixedpoint.default_grids()
    for sigma in args.sigmas:
        path = fixedpoint.path_map(u0, sigma)
        U0 = fixedpoint.caloric_corotational_field(path, radial, sphere)
        state = fixedpoint.picard_iterate(U0, args.K, sigma=sigma)
        decay = fixedpoint.verify_decay(state.V)
        ratios = ", ".join(f"{q:.2e}" for q in state.contraction_ratios)
        print(f"sigma={sigma:4.2f}  steps={len(state.step_norms)}  "
              f"q=[{ratios}]  |V|_x={state.x_norm_V:.3e}  "
              f"static residual={state.static_residual:.3e}")
        print(f"            decay slopes: value {_slope(decay.value_slope)}, "
              f"gradient {_slope(decay.gradient_slope)}; "
              f"sup f|V|={decay.sup_fV:.3e}")


if __name__ == "__main__":
    main()
