"""Scenario file format and the seeded synthetic generator."""

import os

import pytest

from nanodr.domain import ScenarioError, check_assumptions
from nanodr.scenario_io import (
    SyntheticSpec,
    default_nanogrid_params,
    generate_synthetic,
    load_scenario,
    save_scenario,
    synthetic_params,
)


def test_roundtrip_is_bit_identical(tmp_path):
    spec = SyntheticSpec(seed=9, slots=3, n=2)
    scen = generate_synthetic(spec)
    path = tmp_path / "scen.csv"
    save_scenario(scen, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scen
    path2 = tmp_path / "scen2.csv"
    save_scenario(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_minimal_single_slot_roundtrip(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(
        "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
        "0,10.5,3.0,-2.25,1.0,2.0,30.0,70.0\n"
    )
    scen = load_scenario(str(path))
    assert scen.n == 1 and scen.slots == 1
    assert scen.m_s[0] == 10.5
    out = tmp_path / "echo.csv"
    save_scenario(scen, str(out))
    assert load_scenario(str(out)) == scen


def test_rejects_inverted_price_band_naming_slot(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
        "0,10.0,3.0,0.0,1.0,2.0,30.0,70.0\n"
        "1,2.0,3.0,0.0,1.0,2.0,30.0,70.0\n"
    )
    with pytest.raises(ScenarioError, match="slot 1"):
        load_scenario(str(path))


def test_missing_column_lists_expected_headers(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1\n"
        "0,10.0,3.0,0.0,1.0,2.0,30.0\n"
    )
    with pytest.raises(ScenarioError, match="t_opt_1"):
        load_scenario(str(path))


def test_bad_number_names_row_and_column(tmp_path):
    path = tmp_path / "garbled.csv"
    path.write_text(
        "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
        "0,10.0,oops,0.0,1.0,2.0,30.0,70.0\n"
    )
    with pytest.raises(ScenarioError, match=r"row 2, column 'm_b'"):
        load_scenario(str(path))


def test_out_of_order_slots_rejected(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
        "1,10.0,3.0,0.0,1.0,2.0,30.0,70.0\n"
    )
    with pytest.raises(ScenarioError, match="out of order"):
        load_scenario(str(path))


def test_same_seed_same_scenario():
    a = generate_synthetic(SyntheticSpec(seed=12))
    b = generate_synthetic(SyntheticSpec(seed=12))
    assert a == b
    assert synthetic_params(SyntheticSpec(seed=12)) == \
        synthetic_params(SyntheticSpec(seed=12))
    c = generate_synthetic(SyntheticSpec(seed=13))
    assert a != c


def test_generated_series_respect_ranges_and_assumptions():
    spec = SyntheticSpec(seed=4)
    scen = generate_synthetic(spec)
    params = synthetic_params(spec)
    assert all(spec.g_t_low <= g <= spec.g_t_high for g in scen.g_t)
    assert all(spec.epsilon_low <= p.epsilon <= spec.epsilon_high for p in params)
    assert all(m == spec.m_b for m in scen.m_b)
    # Must hold against the default building constants by construction.
    check_assumptions(scen, params)
    for i in range(scen.n):
        assert max(row[i] for row in scen.t_out) <= params[i].t_max
    # The interchange limit must never bind the draw box below [0, e_max].
    for k in range(scen.slots):
        for i in range(scen.n):
            assert scen.d[k][i] - scen.rp[k][i] + params[i].e_max <= params[i].l_max
            assert scen.rp[k][i] - scen.d[k][i] <= params[i].l_max


def test_spec_validation():
    with pytest.raises(ScenarioError):
        SyntheticSpec(slots=0)
    with pytest.raises(ScenarioError):
        SyntheticSpec(g_t_low=5.0, g_t_high=-5.0)
    with pytest.raises(ScenarioError):
        SyntheticSpec(epsilon_low=0.0)
    with pytest.raises(ScenarioError):
        SyntheticSpec(m_s_night=3.5)


def test_golden_example_file_loads():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    golden = os.path.join(here, "docs", "example_scenario.csv")
    scen = load_scenario(golden)
    assert scen.n == 2
    assert scen.slots == 24
    check_assumptions(scen, [default_nanogrid_params(0.95)] * scen.n)
