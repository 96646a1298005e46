"""Byte-level gate on the step-rule solvers: pinned CSV digests per run.

Rosenbrock n=5 (its evaluator has no matrix-vector product, so the values do
not depend on BLAS), noise 1e-4, budget 200 n, started at the origin. Each
entry pins the sha256 of the emitted trace CSV, the oracle count and the
termination. No benchmark workload runs GDF or rg, so this is their
byte-level gate. Nelder-Mead and rg take no scheme; their entries read "-".
"""

import hashlib

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


def _run(solver, scheme, seed):
    obj = make_rosenbrock(N).objective
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


@pytest.mark.parametrize("solver,scheme,seed", sorted(GOLDEN))
def test_trace_bytes_match_the_pinned_digest(tmp_path, solver, scheme, seed):
    report = _run(solver, None if scheme == "-" else GradScheme(scheme), seed)
    path = tmp_path / "trace.csv"
    emit_csv(report.trace, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest, report.evals, report.termination) == GOLDEN[(solver, scheme, seed)]
