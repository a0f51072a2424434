#!/usr/bin/env python3
"""How the Gaussian mask shapes a local receptive field around an aspect.

The mask samples a zero-mean Gaussian density at fixed intervals away from
the aspect span: aspect tokens sit at the peak GK(0) and context tokens
decay with distance. The width sigma comes from a small MLP over the pooled
sentence, so it adapts per sentence; here we sweep sigma by hand to see the
effect.
"""

import math

import numpy as np

from gdd.autodiff import Var
from gdd.local_encoder import gaussian_mask_var
from gdd.numeric import Rng

tokens = ["the", "dishes", "at", "this", "place", "are", "handled", "with", "care"]
span = (1, 1)  # aspect: "dishes"
n = len(tokens)
d_model, d_hid = 16, 8


def mask_layer(H, weights):
    """The encoder's mask layer on sentence rows H: (masked rows, sigma, mask)."""
    return gaussian_mask_var(Var(H), *(Var(w) for w in weights), span, interval=0.2)


print(f"sentence: {' '.join(tokens)}")
print(f"aspect:   {tokens[span[0]]}\n")

print(f"{'sigma':>6} | " + " ".join(f"{t[:6]:>7}" for t in tokens))
print("-" * (9 + 8 * n))
for sigma in (0.5, 1.0, 2.0, 4.0):
    # zero MLP weights leave sigma = softplus(b2); b2 = log(expm1(sigma)) inverts it
    fixed = [np.zeros((d_model, d_hid)), np.zeros(d_hid), np.zeros((d_hid, 1)),
             np.array([math.log(math.expm1(sigma))])]
    _, _, mask = mask_layer(np.ones((n, d_model)), fixed)
    print(f"{sigma:6.1f} | " + " ".join(f"{v:7.4f}" for v in mask))

print("""
Small sigma concentrates the mask tightly on the aspect; large sigma lets
distant tokens contribute almost as much as the aspect itself. Note the
peak value 1/(sigma*sqrt(2*pi)) drops as sigma grows -- downstream
projections absorb the scale (pass normalize=True for a peak-1 variant).
""")

# sigma is normally learned: a tiny MLP reads the mean token embedding
rng = Rng(0)
weights = [rng.uniform((d_model, d_hid), -0.5, 0.5),  # W1
           rng.uniform((d_hid,), -0.5, 0.5),          # b1
           rng.uniform((d_hid, 1), -0.5, 0.5),        # W2
           rng.uniform((1,), -0.5, 0.5)]              # b2
for trial in range(3):
    H = Rng(10 + trial).uniform((n, d_model), -1, 1)
    _, sigma, _ = mask_layer(H, weights)
    print(f"random sentence representation {trial}: learned sigma = {sigma[0]:.4f}")
