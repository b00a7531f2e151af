"""Distribution-agnostic de-anonymization of correlated databases.

Simulates pairs of randomly generated databases linked by a hidden row
permutation, column repetitions (deletions/replications), and
memoryless noise, then recovers the permutation without prior knowledge
of any of the underlying distributions: replica detection from
adjacent-column statistics, seeded deletion detection by outlier
scanning, plug-in distribution estimation, and typicality-based row
matching, plus a Monte Carlo harness for growth-rate phase-transition
studies.

Import each name from the module that defines it, not from here.
"""

__version__ = "0.1.0"
