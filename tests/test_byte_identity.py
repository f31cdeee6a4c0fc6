"""The chains' outputs, byte for byte, pinned as one sha256 per group.

A group is one law (quad, tri, geo3) under one transform (finite from
l0 = 40, ibpm from l0 = 2) in one volume mode: a 300-chain x 3000-step
ensemble and a 2000-step trace.  Two more groups pin a small ``ecf_test``
and a heavy-tailed law's ibpm run, whose hole volumes are its rounded
means.  A change that leaves every stream as it was leaves these pins
alone; a change of streams re-pins exactly the groups it moves and says
which and why.  The compiled loops and the reference loops
(``--reference-loops``) give the same bytes, so the pins hold on both.
The streams depend on numpy's generators, so the pins name the numpy
version they were taken with.
"""

import hashlib
import math

import numpy as np
import pytest

from peelkit.peeling import VOLUME_MODES, simulate, simulate_ensemble
from peelkit.scaling import ecf_test
from peelkit.walk import complete_nu, symmetric_family
from peelkit.weights import nu_from_q, preset

NUMPY = "2.4.6"
PINS = {
    "quad-finite-exact_small": "ea47ce4c3e4f7ecc3cef20a1d13ca59bcb631b6cbf13348b6201bc44ded9b0ae",
    "quad-finite-asymptotic_xi": "8a27e52ee6cba86c6168c64b5798ce3f831410e321fc4345fd85a043ac25c3e8",
    "quad-finite-expectation": "14f17421b6a70d28a7746a03877e1977b89914de563b11a0d03299371a148527",
    "quad-ibpm-exact_small": "58a3ada5a5fd0a3896a6066ae5e692f3df804c4ff76eb901e382d43f65b1302b",
    "quad-ibpm-asymptotic_xi": "af24898927386b809041c37064e948f0d2b088c2f2dbaec31e7f7caf188904e6",
    "quad-ibpm-expectation": "eacb917ea53150b4b7a45b1ce47ab06129567912b9b4f9ce7a039a52c83e4bdb",
    "tri-finite-exact_small": "6c38f35e9f545bd2faf7e0578ca930a5e769cb5c704efa9db1dc81663a6ae955",
    "tri-finite-asymptotic_xi": "22f3e28d864c69484dcadc45a0f0d5edb5e8e3887968d3f058a0172e655fc801",
    "tri-finite-expectation": "2dd59826c91b48cdaca69ec1e54d7ad27abf915ce968432c0416b5c0fa019d02",
    "tri-ibpm-exact_small": "14ad4d9725806d02adf24dfc7616b717f2a3c4fd141b4e9a2649a442297062b6",
    "tri-ibpm-asymptotic_xi": "03305a697905792e226c19331d1cc5a17ca9baf1c4958438a100a2d92f599de6",
    "tri-ibpm-expectation": "584b7ce9000a20dceb9f7544a579b14baec5242a5d7b26c11f527f2d9d926611",
    "geo3-finite-exact_small": "616855552794dac9b7ac8bbbb3bb48321b820f49c4d82cfa62c750792d1ddd73",
    "geo3-finite-asymptotic_xi": "9f60d0d5db9dd6837ee01a7bb1f28ea01f28353ae585a71a4173c0da8ef9808e",
    "geo3-finite-expectation": "b753787ad09119a90c9bfa8d88c92b37b9514a95bca351afa70a7a1a57ee3adb",
    "geo3-ibpm-exact_small": "f23c5cec1c4ebea2aa6dbe24096cdf6534d97caf28bcb6f9ee36ff53d8af32a0",
    "geo3-ibpm-asymptotic_xi": "d829dca896d507021db77ba9bdb672161b65cf6ac61e8f71f1ccbbc82bbd1b3e",
    "geo3-ibpm-expectation": "7a3409cc7443d5448d0b873cc15c0cda98d4ae1e231b648d63a6fb269eede988",
    "ecf": "a4679b6865a89864b8b3c1315dd12a14691a5ecc9059b81e100ab34b71d5097f",
    "heavy": "6b927a6fa8e8eedda96c11c595e7af919ae7e765646a0dbf86aa314e102dc7cc",
}
LAWS = {"quad": ("two_p_angulation", {"p": 2}), "tri": ("odd_angulation", {"p": 1}),
        "geo3": ("geometric", {"H": 3.0})}
L0 = {"finite": 40, "ibpm": 2}
# flags that say which engine parts a run reused: they depend on the runs
# before it, not on its streams
REUSE_FLAGS = ("window_reused", "depth_built")


def _law(key):
    name, params = LAWS[key]
    res = preset(name, **params)
    pos = nu_from_q(res.weights, res.constants["c_plus"], float(res.constants["r"]))
    return complete_nu(pos, k_neg=512)


def _runs_digest(mode, law, volume_mode, seed):
    """sha256 over an ensemble's checkpoints and a trace, with their flags."""
    h = hashlib.sha256()
    out = simulate_ensemble(mode, law, L0[mode], 3000, 300, seed=seed,
                            volume_mode=volume_mode, checkpoints=[1000, 2000])
    tr = simulate(mode, law, l0=L0[mode], n_steps=2000, seed=seed + 1,
                  volume_mode=volume_mode)
    for c in sorted(out):
        h.update(f"{c}:".encode() + out[c][0].tobytes() + out[c][1].tobytes())
    h.update(tr.perimeters.tobytes() + tr.volumes.tobytes())
    for flags in (out.flags, tr.flags):
        h.update(repr(sorted((k, v) for k, v in flags.items()
                             if k not in REUSE_FLAGS)).encode())
    return h.hexdigest()


def _digest(group):
    if group == "ecf":
        rep = ecf_test(_law("tri"), 500, 4000, seed=3)
        return hashlib.sha256(rep.empirical.tobytes() + rep.std_error.tobytes()).hexdigest()
    if group == "heavy":
        return _runs_digest("ibpm", symmetric_family(1.0, math.pi / 4, k_pos=256),
                            "asymptotic_xi", 11)
    key, mode, volume_mode = group.split("-")
    return _runs_digest(mode, _law(key), volume_mode, 7)


GROUPS = [f"{key}-{mode}-{vm}" for key in LAWS for mode in L0
          for vm in VOLUME_MODES] + ["ecf", "heavy"]


@pytest.mark.parametrize("group", GROUPS)
def test_pinned_digest(group):
    assert np.__version__ == NUMPY, (
        f"the pins were taken with numpy {NUMPY}; this is numpy {np.__version__}")
    assert _digest(group) == PINS[group], f"group {group} moved"


def test_pins_hold_on_a_warm_slot():
    # every group again in one process, without clearing the engine slot:
    # in order, then in reverse order, so that each group runs on the parts
    # the groups before it left (and in reverse, on parts whose tables grew
    # further), and every digest stays pinned
    assert np.__version__ == NUMPY
    forward = {group: _digest(group) for group in GROUPS}
    backward = {group: _digest(group) for group in reversed(GROUPS)}
    assert forward == backward == PINS
