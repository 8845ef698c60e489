"""The Phoenix benchmark suite on the APU (paper Section 5.2).

Eight applications, each with a functional kernel validated against a
NumPy/Python reference, a paper-scale latency program, per-optimization
variants (Fig. 13), and the measured-vs-predicted validation pair
(Table 7).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("ALL_OPTS", "AppResult", "NO_OPTS", "OptFlags", "PhoenixApp"),
    "histogram": ("Histogram",),
    "kmeans": ("KMeans",),
    "linear_regression": ("LinearRegression",),
    "matrix_multiply": ("MatrixMultiply",),
    "pca": ("PCA",),
    "reverse_index": ("ReverseIndex",),
    "string_match": ("StringMatch",),
    "suite": ("Fig13Row", "PhoenixSuite", "TABLE6_APPS", "Table7Row"),
    "word_count": ("WordCount",),
})
