"""cylstable: a desk-scale laboratory for stochastic evolution equations
driven by canonical alpha-stable cylindrical noise.

Samples the noise, evaluates the explicit constants of the stable
calculus, solves for the discrete mild solution and certifies it, and
verifies the quantitative constant-free claims (tail plateaus, tail
index, moment stability, contraction) by reproducible Monte-Carlo
experiments.

Importing the package loads no module; each name lives in its module, as in
``from cylstable.picard import solve``.
"""

__version__ = "0.19.0"
