"""The three workloads: which cyclictri invocations each runs and what each
must print.

Expected verdict lines come from the theorems and known counts, not from
whatever the code printed: S1 = S2 as relations (Edelman-Reiner for d <= 3,
Williams 2023 for all d); S(9,4) is not a lattice (Edelman-Reiner);
mu(0,1) = (-1)^(n-d-3) and the proper part of S(n,d) is a homology sphere
S^(n-d-3); the proper subdivisions of C(n,d) form a homology sphere
S^(n-d-2) (Edelman-Rambau-Reiner); |T(9,3)| = 972; C(7,2) has 197 polygon
dissections, 196 of them proper.  The one verdict with no theorem behind it
is that S1(10,4) is not a lattice; it is the code's own finding, pinned by
its digest.  A line ending in "..." is matched as a prefix, where the
theorem leaves the printed witness open.

The sha256 digests pin the whole stdout (verdict and payload) as the
unmodified program printed it; the project requires these bytes to stay
identical.  `sphere --n 9 --d 3` has no digest: at the time the digests were
recorded it stopped at the default face budget (exit 2), which is a known
defect, so the job is expected to fail until the defect is fixed.  Its
payload is still checked against the theorem, as for every sphere job.
"""

from collections import namedtuple

# Every job is expected to exit 0.  argv: cyclictri arguments; lines:
# expected first stdout lines; sha256: digest of the whole stdout, or None;
# sphere: k when the payload is a sphere certificate for S^k; nominal_s:
# wall seconds of one untraced run of the unmodified program (2-CPU Linux
# container, CPython 3.11).  nominal_s fixes how often each job runs in a
# benchmark run, so the schedule, and with it the attempted and failed
# counts, never depends on how fast the machine or the program is.
Job = namedtuple("Job", "argv lines sha256 sphere nominal_s")


def job(args, lines, sha256, nominal_s, sphere=None):
    return Job(tuple(args.split()), tuple(lines), sha256, sphere, nominal_s)


WORKLOADS = {
    # Flip BFS enumeration, validate, the S1 closure, covers and the lattice
    # scan; many small contract/insert constructions beside one large
    # enumeration.  No exact LPs, no order complex.
    "flip": (
        job("check-lattice --order s1 --n 10 --d 4",
            ["s1(10,4) is not a lattice: ..."],
            "e00297b8ef4f47a71ee7a6994b369e49f809a2e9b6f15664987a4a3c95ca0f19", 10.08),
        job("compare-orders --n 9 --d 3",
            ["s1(9,3) and s2(9,3) are equal as relations"],
            "13c9a073be1d79910d1928d49297884eb3a2a1122187f983322cf9d69ceb3a38", 0.82),
        job("verify-suspension --order s1 --n 9 --d 3",
            ["suspension hypotheses for s1(9,3): PASS"],
            "186d63f0cf43609bf954c32343da137c59d92bed3aff8070bb378a83cb3c8d70", 1.32),
        job("verify-connecting --n 9 --d 3",
            ["connecting sets for C(9,3): 972 triangulations, 0 failures"],
            "d72f133a6210c2ad41115eb71f4c3707963d93a165f394c1e24567654feb5be5", 0.61),
    ),
    # Exact-Fraction LPs behind submersion_mask for even and odd d; small
    # enumerations, no topology.
    "height": (
        job("check-lattice --order s2 --n 9 --d 4",
            ["s2(9,4) is not a lattice: ..."],
            "63918da4ec2e8563a1f88e5b6378ed46e023725d6bd94365f1ca081326cf7695", 5.08),
        job("mobius --order s2 --n 9 --d 5",
            ["mobius(0,1) of s2(9,5) = -1, expected (-1)^1 = -1"],
            "3fb18cf84cd44e7f8411cd034106cf98c9ee59ce5fa1ef6758c469c9d60f3b4d", 10.62),
        job("compare-orders --n 8 --d 4",
            ["s1(8,4) and s2(8,4) are equal as relations"],
            "54696436dc2f8b3f7edc534e116b4b1d62cef3ab598f0eeafc79bba5af5182d2", 1.23),
    ),
    # Order-complex materialisation, free-face collapse and Smith normal
    # form: S(8,2) is deep (1.6 M faces), S(8,3) wide and shallow.
    "sphere": (
        job("sphere --n 8 --d 2",
            ["homology certificate PASS: S^3"],
            "65fbcec1c1b6819ccdc2a3694c32924bf9da91887bef12a0e1c3575c25edb8b2", 19.24,
            sphere=3),
        job("sphere --n 8 --d 3",
            ["homology certificate PASS: S^2"],
            "bd48d74be43a537a1e5b394cf27820b53076cac6d2f2b5cae4841dd32240363c", 1.19,
            sphere=2),
        job("baues --n 7 --d 2 --certificate",
            ["subdivision poset of C(7,2): 196 elements",
             "homology certificate PASS: S^3"],
            "1e2f6f1fb9f153e55846650cd3390b8b625458986266561fb9fd47950b756357", 0.25),
        job("sphere --n 9 --d 3",
            ["homology certificate PASS: S^3"], None, 0.77, sphere=3),
    ),
}

# Per-layer counts that must read zero on a workload: the bypass side of
# each prediction.  A prefix ending in "." covers every span of a module.
PREDICTED_ZERO = {
    "flip": ("geometry.exact_lp", "topology."),
    "height": ("topology.",),
    "sphere": ("geometry.exact_lp",),
}


def job_name(j):
    """Per-layer metric name of a job: cli.<subcommand>.<n>_<d>.s"""
    a = list(j.argv)
    return "cli.%s.%s_%s.s" % (a[0], a[a.index("--n") + 1], a[a.index("--d") + 1])
