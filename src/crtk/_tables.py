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
# at the generator's degree.  free_crt types each word at import (it must run
# from the generator to its entry); tests validate it against the stored tables.
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

# The pairing axioms of the monogenic modules, as three tables of words that
# tensor.py types against their entries at import.  Each word is in
# crt_core._parse_side's notation and read on the second factor N.  A sign is
# 1, -1, "s" or "-s", where s = (-1)^g for the summand's generator degree g.

# Provenance slots per summand kind and part: (label, N part, degree offset,
# pre, post, n-word).  A slot at window m of a summand with generator degree g
# holds N^{N part}_{m - g + offset}, and n there stands for the element
# post(pre(b) ⊗ n-word(n)) of the tensor, b the summand's generator: pre is
# read on the free module at b's degree, n-word on N at n's degree, and post
# on the tensor at the window of the pure tensor, whose part is the N part.
SLOT_WORDS = {
    "R": {
        "O": [("b~", "O", 0, "O", "O", "O")],
        "U": [("cb~", "U", 0, "c", "U", "U")],
        "T": [("eb~", "T", 0, "eps", "T", "T")],
    },
    "C": {
        "O": [("r(b~)", "U", 0, "U", "r", "U")],
        "U": [("b~", "U", 0, "U", "U", "U"), ("psiU.b~", "U", 0, "U", "psiU", "psiU")],
        "T": [("gamma(b~)", "U", 1, "U", "gamma", "U"), ("eps.r(b~)", "U", 0, "U", "eps.r", "U")],
    },
    "T": {
        "O": [("tau(b~)", "T", -1, "T", "tau", "T")],
        "U": [("zb~", "U", 0, "zeta", "U", "U"), ("ctb~", "U", -1, "c+1.tau", "U", "U")],
        "T": [("b~", "T", 0, "T", "T", "T"), ("etb~", "T", -1, "eps+1.tau", "T", "T")],
    },
}

# The raw operations of (summand ⊗ N) per kind: {(target slot, source slot):
# (sign, word)}, slots numbered as in SLOT_WORDS, words read on N at o = m - g
# for the source window m.  A missing block is zero.  A real summand pairs
# each operation with N's own, twisted by s across a degree shift.
BLOCK_WORDS = {
    "R": {
        "c": {(0, 0): (1, "c")},
        "r": {(0, 0): (1, "r")},
        "eps": {(0, 0): (1, "eps")},
        "zeta": {(0, 0): (1, "zeta")},
        "psiU": {(0, 0): (1, "psiU")},
        "psiT": {(0, 0): (1, "psiT")},
        "gamma": {(0, 0): ("s", "gamma")},
        "tau": {(0, 0): ("s", "tau")},
    },
    "C": {
        "c": {(0, 0): (1, "U"), (1, 0): (1, "psiU")},
        "r": {(0, 0): (1, "U"), (0, 1): (1, "psiU")},
        "eps": {(1, 0): (1, "U")},
        "zeta": {(0, 1): (1, "U"), (1, 1): (1, "psiU")},
        "psiU": {(0, 1): (1, "psiU"), (1, 0): (1, "psiU")},
        "psiT": {(0, 0): (-1, "U+1"), (1, 1): (1, "U")},
        "gamma": {(0, 0): (1, "U"), (0, 1): (1, "psiU")},
        "tau": {(0, 0): (1, "U+1")},
    },
    "T": {
        "c": {(0, 0): ("s", "c.tau-1"), (1, 0): (1, "zeta-1")},
        "r": {(0, 0): ("s", "gamma"), (0, 1): (1, "eps-1.r-1")},
        "eps": {(0, 0): ("s", "eps.tau-1 + gamma+1.zeta-1"), (1, 0): (1, "T-1")},
        "zeta": {(0, 0): (1, "zeta"), (1, 1): (1, "zeta-1")},
        "psiU": {(0, 0): (1, "psiU"), (1, 1): (1, "psiU-1")},
        "psiT": {(0, 0): (1, "psiT"), (1, 0): ("s", "gamma.zeta"), (1, 1): (1, "psiT-1")},
        "gamma": {(0, 0): ("s", "gamma"), (1, 1): ("-s", "gamma-1")},
        "tau": {(0, 0): (1, "T"), (0, 1): ("-s", "eps.tau-1")},
    },
}

# (basis vector of a summand) ⊗ n in the summand's slots: keyed by (kind,
# part, offset of the basis vector from the generator degree modulo the part's
# period, position of its word in that offset's list in BASIS_WORDS), a sum of
# terms (slot, sign, word), the word read on N at n's degree.  A basis word
# moves onto n as the same word: e.g. R's "r+4.c".
EXPANSION_WORDS = {
    ("R", "O", 0, 0): [(0, 1, "O")],
    ("R", "O", 1, 0): [(0, "s", "tau.eps")],
    ("R", "O", 2, 0): [(0, 1, "tau+1.eps+1.tau.eps")],
    ("R", "O", 4, 0): [(0, 1, "r+4.c")],
    ("R", "U", 0, 0): [(0, 1, "U")],
    ("R", "T", 0, 0): [(0, 1, "T")],
    ("R", "T", 1, 0): [(0, "s", "gamma+2.zeta")],
    ("R", "T", 3, 0): [(0, "s", "gamma.zeta")],
    ("C", "O", 0, 0): [(0, 1, "c")],
    ("C", "O", 2, 0): [(0, -1, "c")],
    ("C", "O", 4, 0): [(0, 1, "c")],
    ("C", "O", 6, 0): [(0, -1, "c")],
    ("C", "U", 0, 0): [(0, 1, "U")],
    ("C", "U", 0, 1): [(1, 1, "U")],
    ("C", "T", 0, 0): [(0, "s", "c+1.tau"), (1, 1, "zeta")],
    ("C", "T", 1, 0): [(0, 1, "zeta")],
    ("C", "T", 2, 0): [(0, "s", "c+1.tau"), (1, 1, "zeta")],
    ("C", "T", 3, 0): [(0, 1, "zeta")],
    ("T", "O", 0, 0): [(0, "-s", "gamma.zeta.eps")],
    ("T", "O", 1, 0): [(0, 1, "eps")],
    ("T", "O", 2, 0): [(0, "-s", "eps+1.tau.eps")],
    ("T", "O", 4, 0): [(0, "-s", "gamma.zeta.eps")],
    ("T", "O", 5, 0): [(0, 1, "eps")],
    ("T", "O", 6, 0): [(0, "-s", "eps+1.tau.eps")],
    ("T", "U", 0, 0): [(0, -1, "U")],
    ("T", "U", 1, 0): [(1, 1, "U")],
    ("T", "T", 0, 0): [(0, -1, "T")],
    ("T", "T", 0, 1): [(1, "-s", "gamma.zeta")],
    ("T", "T", 1, 0): [(0, "s", "gamma+2.zeta")],
    ("T", "T", 1, 1): [(1, 1, "T")],
    ("T", "T", 2, 0): [(1, "-s", "gamma+2.zeta")],
    ("T", "T", 3, 0): [(0, "-s", "gamma.zeta")],
}
