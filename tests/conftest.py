import renewal_immigration  # noqa: F401  one-thread BLAS, set before any test module loads numpy
