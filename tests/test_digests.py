"""SHA-256 digests of what `classify` and `integrate` return on seeded
criterion-2 equilibria, so a change that is meant to move no bit is checked
bit for bit.

The inputs are equilibria of `random_recipe`, regular, exotic and mixed, at
n = 3..8 on diagonal and on rotated bodies, run as criterion 2 runs them
(dt = 1e-3, t_end = 10, every 500th step), plus one momentum with exact -0
entries. A rotated body passes through LAPACK `eigh` and BLAS `matmul`, so
its digests hold for the numpy build they were recorded with (numpy 2.4.6,
scipy-openblas 0.3.31 on x86-64); a diagonal body's eigenframe is exact.
"""

import hashlib

import numpy as np

import freetop as ft

from recipes import criterion2_body, random_recipe, read_recipe


def digest_cases(n):
    """(body, momentum) of each kind on a diagonal and a rotated body."""
    rng = np.random.default_rng(3400 + n)
    for kind in ("regular", "exotic", "mixed"):
        if kind == "exotic" and n < 4:
            continue
        for rotated in (False, True):
            body = criterion2_body(n, rng, rotated)
            momentum, _ = ft.generate(random_recipe(n, rng, kind=kind), body)
            yield body, momentum.array


def signed_zero_case():
    """A regular equilibrium on a diagonal body, n = 6, whose upper triangle
    holds -0 wherever it is zero; skew keeps those -0 entries."""
    body = ft.InertiaSpec.from_eigenvalues([2.2, 1.0, 4.5, 1.6, 3.1, 0.7])
    m, _ = ft.generate(read_recipe(((0, 3), 1.3), ((1, 4), 0.7), fixed_axes=(2, 5)), body)
    m = m.array.copy()
    m[np.triu(m == 0.0, 1)] = -0.0
    return body, m


def classify_bytes(s):
    parts = [np.asarray(s.fixed_axes, dtype="<i8").tobytes(),
             np.float64(s.residual).tobytes(), bytes([s.regular])]
    for b in s.blocks:
        parts += [np.float64(b.omega).tobytes(), np.asarray(b.axes, dtype="<i8").tobytes(),
                  b.A.astype("<f8").tobytes()]
    return b"".join(parts)


def integrate_bytes(traj):
    return b"".join(a.astype("<f8").tobytes() for a in (traj.times, traj.momenta,
                                                         traj.invariants))


def digests(cases):
    """(classify digest, integrate digest) over the cases in turn. Each
    integrate adds its trajectory at manakov_max_power 2, as criterion 2
    takes it, and the invariants of its momenta at max_power n."""
    cls, run = hashlib.sha256(), hashlib.sha256()
    for body, m in cases:
        cls.update(classify_bytes(ft.classify(m, body)))
        traj = ft.integrate(m, body, dt=1e-3, t_end=10.0, record_every=500,
                            manakov_max_power=2)
        run.update(integrate_bytes(traj))
        run.update(ft.compute_invariants(traj.momenta, body, body.n).astype("<f8").tobytes())
    return cls.hexdigest(), run.hexdigest()


# (classify, integrate) digests of digests(digest_cases(n)) and of the signed
# zero case, recorded before the constants of the scaled eigenframe moved into
# InertiaSpec. A change that moves any bit of either result fails here.
RESULT_DIGESTS = {
    3: ("8a8571a761816168726275cdd937805960308cf699aa3b10007864e4dc82d2c9",
        "f27ff4802ad02c6c79a5ba50d1a62ec10b6fbd0df77237f4b2f4988ba6027987"),
    4: ("4a6051223ec16f8e651cb6bcbc29ecc324759b65267bb5c5a2388389de93f0be",
        "c695a2ad2eb5ace55d861155596c21fd5de27bb7db48ed1360163a7dd25958e9"),
    5: ("aa0f15103ce1e07caacdb0aeab781521949631b6e9efdf171e35eafd7573539e",
        "a3f91e4f0f22db68e8567be0d218ce757bb4b0f14957a527babc7157b364a9a4"),
    6: ("65079b9c215733ae7c058a851d4073484c9b90bdd1637382fc00b94352707731",
        "3c025089006c1beca739383e64216ec7e34f4f7f4432ce556d5b896721ff26ec"),
    7: ("a730f7ebfddb115d15b6c7723f46951f6fc86b70d38c53418fa5d1b75c07833a",
        "db986144b012b3e0fefb98cb36f30b89b0df191de7a23cf7938f8ed2eaa0c859"),
    8: ("f03b3ddb589d9de85485c5f74a5e655edaf6dc343522ba9f9e4081d88d21afce",
        "8b6b7ca64ff4f75f6469cf4094c85a66b22ae2c7858f641a63c64cc0c299b6aa"),
    "signed-zeros": (
        "7ba30fd49b9f90fa3df4088fb426e00efbbbc74c09e018d0497ca3f5a837c05f",
        "884bd2ed4d0d222b97b81dde5a0263560aabd4daad302ec5cd57cdb27d1723da"),
}


def test_result_digests():
    got = {n: digests(digest_cases(n)) for n in range(3, 9)}
    got["signed-zeros"] = digests([signed_zero_case()])
    assert got == RESULT_DIGESTS


def test_signed_zero_case_keeps_its_zeros():
    body, m = signed_zero_case()
    arr = ft.skew(m)
    upper = np.triu(np.ones_like(arr, dtype=bool), 1)
    assert np.signbit(arr[upper & (arr == 0)]).all()
    assert ft.classify(m, body).regular
