"""Resource caps, in one table.  Every error a cap raises names its key."""

LIMITS = {
    "lattice_rank": 4,   # dual cones and Hilbert bases (cones.RANK_CAP)
    "schubert_n": 8,     # n of a Gr(k, n) Schubert torification
    "gaussian_n": 12,    # n of a Gaussian binomial [n choose k]_q
    "membership_table": 4096,  # vectors kept by a monoid's membership table
    "field_size": 3_317_044_064_679_887_385_961_980,  # q whose primality is decided
    "ring_mul_terms": 10_000,  # monomial products |x| * |y| in one ring_mul
    "polynomial_degree": 1000,  # degree of a typed counting polynomial
    "listed_tori": 1_000_000,  # tori listed one by one (a rank per torus);
                               # rank multiplicities have no such cap
}
