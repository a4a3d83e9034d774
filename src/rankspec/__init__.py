"""Rank-based spectral estimation of latent correlation matrices.

The package estimates a latent Gaussian correlation matrix from data whose
margins have been distorted by unknown strictly increasing transforms.  Only
the ranks of the observations enter the estimators, so the estimates are
invariant to those transforms by construction.

Layout:

- ``linalg``      dense symmetric containers, norms, eigenpairs
- ``copula``      population models, transform sets, latent sampling
- ``rankest``     pairwise Kendall/Spearman statistics and the sine-map
                  correlation estimators
- ``kernels``     bivariate normal CDF, concentration kernels, Hajek
                  projection matrices, inequality sweeps
- ``regularize``  tapering and exact sparse PCA
- ``harness``     Monte Carlo experiment runner, rate fits, bound ratios
- ``cli``         command line front end
"""

__version__ = "0.1.0"
