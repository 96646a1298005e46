"""Byte-level gate on the step-rule solvers: pinned CSV digests per run.

Rosenbrock n=5 (its evaluator has no matrix-vector product, so the values do
not depend on BLAS), noise 1e-4, budget 200 n, started at the origin. Each
entry pins the sha256 of the emitted trace CSV, the oracle count and the
termination. No benchmark workload runs GDF or rg, so this is their
byte-level gate. Nelder-Mead and rg take no scheme; their entries read "-".

``GOLDEN`` pins the per-point route, the objective without its
``stencil_evaluator``, so every stencil loops over the scalar evaluator.
``KERNEL_GOLDEN`` pins the finite-difference solvers on Rosenbrock's
closed-form stencil kernel, whose values differ from the scalar evaluator's
by rounding; each of those runs must take the per-point run's iterations,
evaluation counts and step statuses exactly. Nelder-Mead and rg never call
the stencil hook, so they have one route.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from adafd import (
    DfbConfig,
    DfcConfig,
    GdfConfig,
    GradScheme,
    ImfilConfig,
    NelderMeadConfig,
    RgConfig,
    dfb_run,
    dfc_run,
    emit_csv,
    gdf_run,
    imfil_run,
    make_rosenbrock,
    nelder_mead_run,
    rg_run,
)

N = 5
BUDGET = 200 * N

GOLDEN = {
    ("dfc", "forward", 0): ("5fd45488fea243a4dd502cc0eed99fde0d6d5d785eeb581fabfaf371b33c6c1e", 1002, "budget"),
    ("dfc", "forward", 1): ("2dd64f505f86b7367acda13b286a0c253537fe1f72a8e55306730612f4f5eb06", 1002, "budget"),
    ("dfc", "central", 0): ("2c48dc03a718e02f705068b9ece4f57c7b73e11292f4abadd75504334803f64e", 1006, "budget"),
    ("dfc", "central", 1): ("6a0825baa60afc8d0ab19a79e9c61780235ea22fb771a42f3c81a0f0d20addb2", 1006, "budget"),
    ("dfb", "forward", 0): ("a475d2755529add45af1ec14a1fc5b0588591e220e142d3836a93d1d56baad4c", 1000, "budget"),
    ("dfb", "forward", 1): ("7440601d4a262fdbd80a0a47ba4923fbd65e45dfb8870233d25e595f869229ab", 1000, "budget"),
    ("dfb", "central", 0): ("1fa126b2eac8af54b9da8a37772275ffc25abc66bfe18ddce2379016376b900e", 1000, "budget"),
    ("dfb", "central", 1): ("8ec6b3477b1f4c7ad9c7610fa94491c9a980978aded29f1be587fbf2ca2a9394", 1000, "budget"),
    ("gdf", "forward", 0): ("8e93456a80339b5ed7f1585eba0722619bee90b0426c0498c3b97d499f16cb73", 1000, "budget"),
    ("gdf", "forward", 1): ("a26e5b68cff0ef3dda5dfa8e5e7b866b88093a12b2336c249e5338d5a32a1f83", 1000, "budget"),
    ("gdf", "central", 0): ("6603511d671d9fc7a956b1ab72ce472e3b85674dc7ecae17d1527a701cb86f87", 1001, "budget"),
    ("gdf", "central", 1): ("ea3ab8e713fed3e53fe90f6888709b313b1520050cca3f463bf593668fa389fe", 1001, "budget"),
    ("imfil", "forward", 0): ("dae172a51fed63f2badfeaf989bcd230ec6bc9e0f1b084a68b4e1bca1a08da63", 1000, "budget"),
    ("imfil", "forward", 1): ("3941095825adff7249b07d82e4337008bef9b63d7245ee4440d25e6eeaf9a181", 1000, "budget"),
    ("imfil", "central", 0): ("242a01521e27252a247281d246275d1648619b98593c409d6a9264fcb5eb9404", 1004, "budget"),
    ("imfil", "central", 1): ("1105dd3ca3037e6064ee44f3ebbedc8eb8292f53c545694db13aac79d3b38e81", 1000, "budget"),
    ("nelder-mead", "-", 0): ("ba3ff5018e95e043254347b778078f0e73c535f9c594101269965e3427928fca", 1000, "budget"),
    ("nelder-mead", "-", 1): ("3c18121b4de531a17615ab2feb65f439fd3b8e547f2f321f893295e1c9ce8a68", 1000, "budget"),
    ("rg", "-", 0): ("6248eb19add4ee43c6d02a150edf7375fe6501cec95470aaab780ca3555293a8", 1000, "budget"),
    ("rg", "-", 1): ("26b90e09048053bd119193f949a13da57012c10aeced6e5f0a1fbba9246993d9", 1000, "budget"),
}


KERNEL_GOLDEN = {
    ("dfc", "forward", 0): ("3655cd107a65b74f196878f4a1cbe80cf56258fa26555a792f701ee14c475682", 1002, "budget"),
    ("dfc", "forward", 1): ("053893d3cb83c455721812e6780b6238df9e3375aa7bfb462f80c9e9ef0d10b7", 1002, "budget"),
    ("dfc", "central", 0): ("5d629a25f69f7b19cdbe2d4dce7dd40857d8afda4e65995bf4d7d31497588f01", 1006, "budget"),
    ("dfc", "central", 1): ("83a75a03f16ff592ae2510b93a0c22cb5e5abf6068cda46e651f4d4a142e2ba8", 1006, "budget"),
    ("dfb", "forward", 0): ("43ac965d0bf70133585207f3071e59b6937fde2ff9ea958e52d958d289e87b76", 1000, "budget"),
    ("dfb", "forward", 1): ("c66ae605c9eb9d4bec8602e7c9e11d8998e762b83ced7db7f19ac5d7ada882fa", 1000, "budget"),
    ("dfb", "central", 0): ("bf7ddf389fe4400ec59a90e2066c7ae353ae86dd398ffda82e5a499928a288a4", 1000, "budget"),
    ("dfb", "central", 1): ("a35a9e9b46e346ebd0e069137fd52ef6f20c78b450c6f5ec0f61290462ead2e8", 1000, "budget"),
    ("gdf", "forward", 0): ("1119f175de02b2502eefd324edf1a4ca663e91cd08ed4ce36ce2675d04777089", 1000, "budget"),
    ("gdf", "forward", 1): ("70e91c9c1a773825df4cde7eecaaf5b503ae3cc39ed54b6872b72893da641665", 1000, "budget"),
    ("gdf", "central", 0): ("8740e5173f19361c65373354630a9e3281c2caf2baa0a16703a478ee315a4077", 1001, "budget"),
    ("gdf", "central", 1): ("46c6a9b326845f3fb4806fb13efeceb6e4b33945cbe3d4fd87602d38f6a31d04", 1001, "budget"),
    ("imfil", "forward", 0): ("bc585f4ef9b806e93146fbe8bf63f6532672b019f864cb711b1dd2c9937e7439", 1000, "budget"),
    ("imfil", "forward", 1): ("02eb42fca02ea9a1c7b7bf7443f1fc681c02fa173a53914ba0f173d69c496285", 1000, "budget"),
    ("imfil", "central", 0): ("68db74c3c5da14b49ab1e58216e47e0781bbe4385a8756601c58af4438b5539d", 1004, "budget"),
    ("imfil", "central", 1): ("9c5681f89c5d42ad5023a6e3603ffb4e9e7e2e936e494afa3f44bfad8003438f", 1000, "budget"),
}


def _run(solver, scheme, seed, kernel=False):
    obj = make_rosenbrock(N).objective
    if not kernel:
        obj = replace(obj, stencil_evaluator=None)
    x1 = np.zeros(N)
    if solver == "dfc":
        return dfc_run(obj, scheme, DfcConfig(x1=x1, budget=BUDGET), 1e-4, seed)
    if solver == "dfb":
        return dfb_run(obj, scheme, DfbConfig(x1=x1, budget=BUDGET), 1e-4, seed)
    if solver == "gdf":
        return gdf_run(obj, scheme, GdfConfig(x1=x1, budget=BUDGET, tau=1e-3), 1e-4, seed)
    if solver == "nelder-mead":
        return nelder_mead_run(obj, NelderMeadConfig(x1=x1, budget=BUDGET), 1e-4, seed)
    if solver == "rg":
        return rg_run(obj, RgConfig(x1=x1, budget=BUDGET, lipschitz=1e3), 1e-4, seed)
    return imfil_run(obj, scheme, ImfilConfig(x1=x1, budget=BUDGET), 1e-4, seed)


def _digest(report, path):
    emit_csv(report.trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), report.evals, report.termination


@pytest.mark.parametrize("solver,scheme,seed", sorted(GOLDEN))
def test_trace_bytes_match_the_pinned_digest(tmp_path, solver, scheme, seed):
    report = _run(solver, None if scheme == "-" else GradScheme(scheme), seed)
    assert _digest(report, tmp_path / "trace.csv") == GOLDEN[(solver, scheme, seed)]


@pytest.mark.parametrize("solver,scheme,seed", sorted(KERNEL_GOLDEN))
def test_kernel_route_matches_its_digest_and_the_per_point_steps(tmp_path, solver, scheme,
                                                                 seed):
    kernel = _run(solver, GradScheme(scheme), seed, kernel=True)
    per_point = _run(solver, GradScheme(scheme), seed)
    assert _digest(kernel, tmp_path / "trace.csv") == KERNEL_GOLDEN[(solver, scheme, seed)]
    assert ([(r.iter, r.evals, r.step_status) for r in kernel.trace]
            == [(r.iter, r.evals, r.step_status) for r in per_point.trace])
