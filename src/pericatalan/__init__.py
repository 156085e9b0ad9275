"""Counting reduced words in free quasigroups.

P(s, n) counts the n-letter words on s generators, over multiplication
and the two divisions, that no quasigroup identity can shorten.  The
package computes these exactly (closed form and independent recursion),
verifies them against brute-force tree enumeration, and tracks their
growth in log space up to the scales where the asymptotic regularities
show up.
"""

__version__ = "0.1.0"
