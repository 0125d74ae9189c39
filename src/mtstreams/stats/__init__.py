"""Statistical test battery over generator output streams.

Submodules:

- ``battery``: battery entries, their checks, draws and sub-statistics,
  and the built-in mini-crush-v1; standard library only.
- ``stream``: views that read a status's words or a word array.
- ``pvalues``: chi-square and Poisson p-value machinery.
- ``complexity``: Berlekamp-Massey linear complexity and its exact null law.
- ``walks``: exact null distributions of random-walk statistics.
- ``families``: the test families and their dispatch.

Importing this package loads none of them, so ``stats.battery`` stays free
of NumPy.
"""
