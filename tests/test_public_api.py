"""The package's public names and the call signatures of the pipeline."""

import inspect

import hrislink
from hrislink.synthesis import synth_ybs, synth_yrc


def test_all_names_resolve_and_star_import():
    missing = [name for name in hrislink.__all__ if not hasattr(hrislink, name)]
    assert not missing, missing
    namespace = {}
    exec("from hrislink import *", namespace)
    assert set(hrislink.__all__) <= namespace.keys()


def test_pipeline_signatures():
    # The receivers always anchor their estimates and the noise is always
    # drawn from a given generator: no switch for either may come back.
    expected = {
        hrislink.hris_bals: ["y_rc", "coding", "init_seed"],
        hrislink.hris_kronf: ["y_rc", "coding"],
        hrislink.hris_krf: ["y_rc", "coding"],
        hrislink.bs_bals: ["y_bs", "ut_channel", "coding", "init_seed"],
        hrislink.bs_kronf: ["y_bs", "ut_channel", "coding"],
        hrislink.bs_channel_only: ["y_bs", "ut_channel", "symbols", "coding"],
        synth_yrc: ["cfg", "channels", "coding", "symbols"],
        synth_ybs: ["cfg", "channels", "coding", "symbols"],
        hrislink.draw_noise: ["shape", "power", "rng"],
    }
    for fn, names in expected.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    assert inspect.signature(hrislink.draw_noise).parameters["rng"].default is inspect.Parameter.empty
