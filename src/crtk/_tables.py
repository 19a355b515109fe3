"""Literal data for the three monogenic free CRT-modules.

Groups are invariant lists per window degree 0..7 ([] = 0, [0] = Z,
[2] = Z_2, [0, 0] = Z^2, [0, 2] = Z + Z_2).  Operation entries are scalars
for maps between cyclic-or-trivial groups and row-lists otherwise, read as
matrices acting on coordinate columns of the ordered generators.  The
whole artifact leans on these constants; the relation and acyclicity
suites double as transcription checksums, and the degree-8 column of each
source table is asserted against degree 0 in the tests.

Basis words use the notation of crt_core's relation table
(crt_core._parse_side): factors (operation, degree offset) joined by "."
and applied right to left, each at the generator degree plus its offset;
"O", "U" or "T" is the identity and a leading "-" negates.  The Bott
elements act as the identity in the stored window, so they only shift the
offsets of later factors: r.betaU is "r+2".  The derived elements are
etaO = "tau.eps", etaT = "gamma+2.zeta", xi = "r+4.c" and
omega = betaT.gamma.zeta = "gamma.zeta", whose betaT moves later factors
by +3 rather than gamma's -1 (so tau.omega is "tau+3.gamma.zeta").
"""

# Real base module: free on one generator in the real part, degree 0.
TABLE_R = {
    "groups": {
        "O": [[0], [2], [2], [], [0], [], [], []],
        "U": [[0], [], [0], [], [0], [], [0], []],
        "T": [[0], [2], [], [0], [0], [2], [], [0]],
    },
    "ops": {
        "c":     [1, 0, 0, 0, 2, 0, 0, 0],
        "r":     [2, 0, 1, 0, 1, 0, 0, 0],
        "eps":   [1, 1, 0, 0, 2, 0, 0, 0],
        "zeta":  [1, 0, 0, 0, 1, 0, 0, 0],
        "psiU":  [1, 0, -1, 0, 1, 0, -1, 0],
        "psiT":  [1, 1, 0, -1, 1, 1, 0, -1],
        "gamma": [1, 0, 1, 0, 1, 0, 1, 0],
        "tau":   [1, 1, 0, 1, 0, 0, 0, 2],
    },
}

# Complex base module: free on one generator in the complex part, degree 0.
TABLE_C = {
    "groups": {
        "O": [[0], [], [0], [], [0], [], [0], []],
        "U": [[0, 0], [], [0, 0], [], [0, 0], [], [0, 0], []],
        "T": [[0], [0], [0], [0], [0], [0], [0], [0]],
    },
    "ops": {
        "c":     [[[1], [1]], 0, [[-1], [1]], 0, [[1], [1]], 0, [[-1], [1]], 0],
        "r":     [[[1, 1]], 0, [[-1, 1]], 0, [[1, 1]], 0, [[-1, 1]], 0],
        "eps":   [1, 0, -1, 0, 1, 0, -1, 0],
        "zeta":  [[[1], [1]], 0, [[1], [-1]], 0, [[1], [1]], 0, [[1], [-1]], 0],
        "psiU":  [[[0, 1], [1, 0]], 0, [[0, -1], [-1, 0]], 0,
                  [[0, 1], [1, 0]], 0, [[0, -1], [-1, 0]], 0],
        "psiT":  [1, -1, 1, -1, 1, -1, 1, -1],
        "gamma": [[[1, 1]], 0, [[1, -1]], 0, [[1, 1]], 0, [[1, -1]], 0],
        "tau":   [0, -1, 0, 1, 0, -1, 0, 1],
    },
}

# Self-conjugate base module: free on the generator (-1, 0) sitting in the
# self-conjugate part in degree -1 (stored window 7).
TABLE_T = {
    "groups": {
        "O": [[0], [2], [], [0], [0], [2], [], [0]],
        "U": [[0], [0], [0], [0], [0], [0], [0], [0]],
        "T": [[0, 2], [2], [0], [0, 0], [0, 2], [2], [0], [0, 0]],
    },
    "ops": {
        "c":     [1, 0, 0, 2, 1, 0, 0, 2],
        "r":     [2, 1, 0, 1, 2, 1, 0, 1],
        "eps":   [[[1], [0]], 1, 0, [[2], [1]], [[1], [1]], 1, 0, [[2], [1]]],
        "zeta":  [[[1, 0]], 0, 0, [[1, 0]], [[1, 0]], 0, 0, [[1, 0]]],
        "psiU":  [1, -1, -1, 1, 1, -1, -1, 1],
        "psiT":  [[[1, 0], [0, 1]], 1, -1, [[1, 0], [1, -1]],
                  [[1, 0], [0, 1]], 1, -1, [[1, 0], [1, -1]]],
        "gamma": [[[0], [1]], [[0], [1]], 1, 1, [[0], [1]], [[0], [1]], 1, 1],
        "tau":   [[[1, 1]], 0, 1, [[-1, 2]], [[0, 1]], 0, 1, [[-1, 2]]],
    },
}

BASE_TABLES = {"R": TABLE_R, "C": TABLE_C, "T": TABLE_T}

# Part and stored coordinates of the free generator of each base module.
GENERATOR = {
    "R": ("O", 0, (1,)),
    "C": ("U", 0, (1, 0)),
    "T": ("T", -1, (-1, 0)),
}

# Basis vectors of each base module as operation words applied to the
# generator, keyed by part and window offset from the generator degree: one
# signed word per basis vector, in crt_core._parse_side's notation and read
# at the generator's degree.  Validated against the stored tables by tests.
BASIS_WORDS = {
    "R": {
        "O": {0: ["O"], 1: ["tau.eps"], 2: ["tau+1.eps+1.tau.eps"], 4: ["r+4.c"]},
        "U": {0: ["c"], 2: ["c"], 4: ["c"], 6: ["c"]},
        "T": {
            0: ["eps"], 1: ["gamma+2.zeta.eps"], 3: ["gamma.zeta.eps"],
            4: ["eps"], 5: ["gamma+2.zeta.eps"], 7: ["gamma.zeta.eps"],
        },
    },
    "C": {
        "O": {0: ["r"], 2: ["-r+2"], 4: ["r+4"], 6: ["-r+6"]},
        "U": {0: ["U", "psiU"], 2: ["U", "psiU"], 4: ["U", "psiU"], 6: ["U", "psiU"]},
        "T": {
            0: ["eps.r"], 1: ["gamma+2"], 2: ["eps+2.r+2"], 3: ["gamma+4"],
            4: ["eps+4.r+4"], 5: ["gamma+6"], 6: ["eps+6.r+6"], 7: ["gamma"],
        },
    },
    "T": {
        "O": {
            0: ["-tau+7.gamma.zeta"], 1: ["tau"], 2: ["tau+1.eps+1.tau"],
            4: ["-tau+3.gamma.zeta"], 5: ["tau+4"], 6: ["tau+5.eps+5.tau+4"],
        },
        "U": {
            0: ["-zeta"], 1: ["c+1.tau"], 2: ["-zeta"], 3: ["c+1.tau"],
            4: ["-zeta"], 5: ["c+1.tau"], 6: ["-zeta"], 7: ["c+1.tau"],
        },
        "T": {
            # canonical generator order puts the torsion generator first,
            # so the gamma.zeta-word precedes the eps.tau-word at offsets 1 and 5
            0: ["-T", "gamma+5.c+1.tau"],
            1: ["gamma+2.zeta", "eps+1.tau"],
            2: ["gamma+3.zeta+1.eps+1.tau"],
            3: ["-gamma.zeta"],
            4: ["-T", "gamma+5.c+1.tau"],
            5: ["gamma+2.zeta", "eps+1.tau"],
            6: ["gamma+3.zeta+1.eps+1.tau"],
            7: ["-gamma.zeta"],
        },
    },
}
