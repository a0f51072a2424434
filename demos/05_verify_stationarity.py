#!/usr/bin/env python3
"""Why the covariance attention centers on the sample means.

The score-contrast objective O(theta, phi) measures how far apart pairwise
attention scores spread when queries and keys are centered on (theta, phi).
Its gradient vanishes exactly at the sample means -- the centering the
covariance attention uses. We confirm numerically: the finite-difference
gradient at the means is orders of magnitude below the gradient at random
nearby points.
"""

import numpy as np

from gdd.local_encoder import check_stationarity, eval_objective
from gdd.numeric import Rng

rng = Rng(2024)
for trial in range(5):
    Q = rng.normal((6, 4))
    K = rng.normal((6, 4))
    report = check_stationarity(Q, K, rng=Rng(trial))
    ratio = report.grad_norm_at_mean / report.median_random_grad_norm
    print(f"trial {trial}: |grad O| at means = {report.grad_norm_at_mean:.3e}   "
          f"median at random points = {report.median_random_grad_norm:.3e}   "
          f"ratio = {ratio:.2e}   stationary = {report.is_stationary}")

# the objective visibly drops (or at least changes) as we walk away
Q = rng.normal((6, 4))
K = rng.normal((6, 4))
theta_star = Q.mean(axis=0)
phi_star = K.mean(axis=0)
print("\nwalking theta away from the mean along a fixed direction:")
direction = rng.uniform((4,), -1, 1)
direction /= np.linalg.norm(direction)
for step in (0.0, 0.1, 0.5, 1.0, 2.0):
    value = eval_objective(theta_star + step * direction, phi_star, Q, K)
    print(f"  step {step:4.1f}: O = {value:.6f}")
