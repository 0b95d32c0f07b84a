"""Iterate tables for the two closed-form problems, plus a solver cross-check.

Prints the solver's path on the linear-over-norm problem on the 2-simplex
from two direction vectors, and on the diagonal-quadratic band problem from
four starts, then confirms the proximal gradient answer against the
parametric reference solver.
"""

import numpy as np

from fracopt import (
    PgaConfig,
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    default_alpha,
    dinkelbach_solve,
    fixed_point_residual,
    pga_solve,
    sim1_analytic_solution,
    sim2_is_global,
)


def show_trace(title, problem, result, rows):
    print(f"\n{title}")
    print("  k     x1        x2        f/g")
    iterates = result.trace.iterates
    ratios = result.trace.ratios
    for k in rows:
        if k < len(iterates):
            x = iterates[k]
            print(f"  {k:<4d}  {x[0]:8.4f}  {x[1]:8.4f}  {ratios[k]:9.4f}")
    residual = fixed_point_residual(problem, result.x_star, default_alpha(problem))
    print(f"  converged in {result.iterations} iterations, residual {residual:.2e}")


def main():
    print("=" * 64)
    print("Linear form over the norm, minimized on the 2-simplex")
    print("=" * 64)
    for label, p in [("A", [2.0, -1.0]), ("B", [-2.0, -1.0])]:
        params = Sim1Params(np.array(p))
        problem = build_sim1(params)
        result = pga_solve(problem, [0.5, 0.5], PgaConfig(record_trace=True))
        show_trace(f"direction {label}: p = {p}", problem, result, [0, 1, 2, 3, 4, 5, 10, 20, 27])
        target = sim1_analytic_solution(params)
        print(f"  closed-form optimum: ({target[0]:.4f}, {target[1]:.4f})")

    print()
    print("=" * 64)
    print("Diagonal quadratic ratio on the band |x2| <= 100")
    print("=" * 64)
    params = Sim2Params(100.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)
    problem = build_sim2(params)
    for x0 in ([50.0, 50.0], [50.0, -50.0], [95.0, 95.0], [95.0, -95.0]):
        result = pga_solve(problem, x0, PgaConfig(tol=1e-7, record_trace=True))
        show_trace(f"start {x0}", problem, result, [0, 1, 5, 10, 25, 52, 55])
        verdict = sim2_is_global(params, result.x_star, 1e-4)
        print(f"  on the optimal segment: {verdict}")

    print()
    print("=" * 64)
    print("Cross-check against the parametric reference solver")
    print("=" * 64)
    problem = build_sim1(Sim1Params(np.array([-2.0, -1.0])))
    prox = pga_solve(problem, [0.5, 0.5], PgaConfig(tol=1e-9))
    param = dinkelbach_solve(problem, [0.5, 0.5])
    print(f"  proximal gradient: minimum {prox.ratio:.8f} at "
          f"({prox.x_star[0]:.6f}, {prox.x_star[1]:.6f})")
    print(f"  parametric scheme: minimum {param.ratio:.8f} at "
          f"({param.x_star[0]:.6f}, {param.x_star[1]:.6f})")
    print(f"  exact value:       {-np.sqrt(5):.8f}")


if __name__ == "__main__":
    main()
