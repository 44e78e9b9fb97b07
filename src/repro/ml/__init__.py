"""Mini machine-learning library built on numpy only.

Provides every model the paper's evaluation uses: GBRT, SVR, linear and
logistic regression, and KNN regression (Figure 16's accuracy
comparison), plus Kernel PCA with Gaussian / polynomial / perceptron
kernels (IICP's CPE step, Figure 6) and the supporting preprocessing,
metric, and validation utilities.

Import each model from its module (``repro.ml.kpca`` and so on): the
package re-exports nothing, so the tuner, which needs only Kernel PCA,
does not load the figure-16 models.
"""
