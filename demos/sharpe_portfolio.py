"""Portfolio optimization on synthetic return data.

Builds a returns matrix with a few distinct risk/return profiles, runs the
Sharpe optimizer, and shows the weights, the achieved objective, and the
global-optimality certificate. Also demonstrates the uncertified case
(every asset losing money): the solver returns the best single asset, the
global optimum there, but the sign test cannot certify it.
"""

import numpy as np

from fracopt import build_sharpe_model, returns_matrix, sharpe_objective, srm_pga


def describe(tag, returns, eps=1e-4):
    model = build_sharpe_model(returns, eps)
    res = srm_pga(model)
    print(f"\n{tag}")
    print(f"  mean returns: {np.array2string(model.p, precision=4)}")
    print("  weights:     ", np.array2string(res.weights, precision=4, suppress_small=True))
    print(f"  objective:    {res.sharpe:.4f}")
    print(f"  certified global: {res.global_certificate}")
    print(f"  iterations:   {res.result.iterations}")
    equal = np.full(model.n_assets, 1.0 / model.n_assets)
    print(f"  equal-weight objective: {sharpe_objective(model, equal):.4f}")


def main():
    rng = np.random.default_rng(12)
    periods = 60

    # three profiles: steady earner, volatile high-mean, volatile low-mean
    steady = rng.normal(0.006, 0.01, size=periods)
    racy = rng.normal(0.012, 0.06, size=periods)
    drag = rng.normal(0.002, 0.05, size=periods)
    mixed = returns_matrix(
        np.column_stack([steady, racy, drag]), ["steady", "racy", "drag"]
    )
    describe("Mixed profiles (certificate expected):", mixed)

    # all-negative means: no nonnegative-mean mixture exists, so the
    # certificate must come back False, though the one-asset answer is optimal
    losing = returns_matrix(
        rng.normal(-0.01, 0.03, size=(periods, 4)), ["L1", "L2", "L3", "L4"]
    )
    describe("Every asset losing (certificate must be False):", losing)

    # regularizer sweep: smaller eps sharpens the variance term, which raises
    # the objective and shrinks the paper's admissible step; the adaptive
    # step srm_pga runs by default does not take that bound, so the
    # iteration count stays the same (3 at each eps here)
    print("\nRegularizer sweep on the mixed profiles:")
    for eps in (1e-2, 1e-3, 1e-4):
        model = build_sharpe_model(mixed, eps)
        res = srm_pga(model)
        print(f"  eps={eps:g}: objective {res.sharpe:.4f}, "
              f"iterations {res.result.iterations}, step bound {model.step_bound:.3e}")


if __name__ == "__main__":
    main()
