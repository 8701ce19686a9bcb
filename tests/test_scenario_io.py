"""Scenario file format and the seeded synthetic generator."""

import csv
import os
import random

import pytest

from nanodr.cli import main
from nanodr.domain import Scenario, ScenarioError, check_assumptions
from nanodr.scenario_io import (
    SyntheticSpec,
    default_nanogrid_params,
    generate_synthetic,
    load_scenario,
    save_scenario,
)


def test_roundtrip_is_bit_identical(tmp_path):
    spec = SyntheticSpec(seed=9, slots=3, n=2)
    scen, _ = generate_synthetic(spec)
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
    a, a_params = generate_synthetic(SyntheticSpec(seed=12))
    b, b_params = generate_synthetic(SyntheticSpec(seed=12))
    assert a == b
    assert a_params == b_params
    c, _ = generate_synthetic(SyntheticSpec(seed=13))
    assert a != c


def test_generated_series_respect_ranges_and_assumptions():
    spec = SyntheticSpec(seed=4)
    scen, params = generate_synthetic(spec)
    # The generator's literal ranges.
    assert all(-15.0 <= g <= 25.0 for g in scen.g_t)
    assert all(0.93 <= p.epsilon <= 0.98 for p in params)
    assert all(m == 3.0 for m in scen.m_b)
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
    # Each message names its own field and value.  NumPy would refuse a
    # negative seed later, with an error naming no field.
    for field, value, message in (("slots", 0, "need slots >= 1, got slots=0"),
                                  ("n", -1, "need n >= 0, got n=-1"),
                                  ("seed", -1, "need seed >= 0, got seed=-1")):
        with pytest.raises(ScenarioError) as exc:
            SyntheticSpec(**{field: value})
        assert str(exc.value) == message


_GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "docs", "example_scenario.csv")


def test_golden_example_file_loads():
    scen = load_scenario(_GOLDEN)
    assert scen.n == 2
    assert scen.slots == 24
    check_assumptions(scen, [default_nanogrid_params(0.95)] * scen.n)


def test_golden_example_file_is_what_its_command_writes(tmp_path):
    # docs/scenario_format.md names this command as the file's source; the
    # file pins the generator's literals byte for byte.
    path = tmp_path / "example.csv"
    assert main(["gen-scenario", "--seed", "11", "--slots", "24",
                 "--followers", "2", "--out", str(path)]) == 0
    with open(_GOLDEN, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_byte_order_mark_is_no_part_of_the_header(tmp_path):
    # Spreadsheet tools' "CSV UTF-8" starts the file with a BOM.
    path = tmp_path / "bom.csv"
    with open(_GOLDEN, "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    loaded, golden = load_scenario(str(path)), load_scenario(_GOLDEN)
    assert loaded == golden and repr(loaded) == repr(golden)


def _csv_writer_oracle(scen, path):
    """The scenario CSV written cell by cell with csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "m_s", "m_b", "g_t"]
                        + [f"{group}_{i + 1}"
                           for group in ("rp", "d", "t_out", "t_opt")
                           for i in range(scen.n)])
        for k in range(scen.slots):
            writer.writerow([str(k), repr(scen.m_s[k]), repr(scen.m_b[k]),
                             repr(scen.g_t[k])]
                            + [repr(series[k][i])
                               for series in (scen.rp, scen.d, scen.t_out, scen.t_opt)
                               for i in range(scen.n)])


@pytest.mark.parametrize("n", [0, 2, 50])
def test_save_writes_the_csv_writer_bytes(tmp_path, n):
    scen, _ = generate_synthetic(SyntheticSpec(seed=3, slots=30, n=n))
    save_scenario(scen, str(tmp_path / "saved.csv"))
    _csv_writer_oracle(scen, tmp_path / "oracle.csv")
    assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert load_scenario(str(tmp_path / "saved.csv")) == scen


def test_signed_zero_and_extreme_numbers_roundtrip(tmp_path):
    # -0.0 == 0.0, so the repr of the whole scenario is compared too.
    scen = Scenario.from_series(
        n=1, slots=2, rp=[[-0.0], [5e-324]], d=[[1e22], [0.1]],
        t_out=[[-0.0], [30.0]], t_opt=[[70.0], [1.7976931348623157e308]],
        m_s=[10.0, 10.0], m_b=[-0.0, 3.0], g_t=[-1e-300, 0.0])
    save_scenario(scen, str(tmp_path / "saved.csv"))
    _csv_writer_oracle(scen, tmp_path / "oracle.csv")
    assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert repr(load_scenario(str(tmp_path / "saved.csv"))) == repr(scen)


def test_permuted_padded_columns_load_to_the_same_scenario(tmp_path):
    scen, _ = generate_synthetic(SyntheticSpec(seed=5, slots=6, n=3))
    save_scenario(scen, str(tmp_path / "plain.csv"))
    with open(tmp_path / "plain.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    order = list(range(len(rows[0])))
    random.Random(7).shuffle(order)
    with open(tmp_path / "permuted.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([f" {row[j]}\t" if j % 2 else f"  {row[j]}" for j in order])
    assert order[0] != 0
    loaded = load_scenario(str(tmp_path / "permuted.csv"))
    assert loaded == scen and repr(loaded) == repr(scen)


def _load_error(path, text):
    path.write_text(text)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(path))
    return str(exc.value)


def test_short_row_names_the_missing_column(tmp_path):
    path = tmp_path / "short_row.csv"
    message = _load_error(path, "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
                                "0,10.0,3.0,0.0,1.0,2.0,30.0,70.0\n"
                                "1,10.0,3.0,0.0,1.0\n")
    assert message == f"{path}: row 3 is short, no column 'd_1'"


def test_long_row_names_both_cell_counts(tmp_path):
    # Two cells past row 2's last column: the data is not rectangular.
    with open(_GOLDEN, newline="") as fh:
        lines = fh.read().split("\r\n")
    lines[1] += ",999,abc"
    path = tmp_path / "long_row.csv"
    message = _load_error(path, "\r\n".join(lines))
    assert message == f"{path}: row 2 has 14 cells, the header 12"


@pytest.mark.parametrize("header", [
    "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1,m_s",
    # Not reported as a missing rp_2 of a two-nanogrid file.
    "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1, rp_1",
])
def test_duplicated_column_is_rejected(tmp_path, header):
    path = tmp_path / "twice.csv"
    message = _load_error(path, header + "\n0,10.0,3.0,0.0,1.0,2.0,30.0,70.0,99.0\n")
    dup = header.rsplit(",", 1)[1].strip()
    assert message == f"{path}: bad header (duplicated columns: [{dup!r}])"


def test_out_of_order_slot_is_reported_before_a_later_bad_cell(tmp_path):
    path = tmp_path / "order.csv"
    message = _load_error(path, "slot,m_s,m_b,g_t,rp_1,d_1,t_out_1,t_opt_1\n"
                                "0,10.0,3.0,0.0,1.0,2.0,30.0,70.0\n"
                                "5,10.0,3.0,0.0,1.0,oops,30.0\n")
    assert message == f"{path}: row 3: slot index 5.0 out of order, expected 1"


def test_bad_last_comfort_target_names_row_and_column(tmp_path):
    path = tmp_path / "t_opt.csv"
    header = "slot,m_s,m_b,g_t,rp_1,rp_2,d_1,d_2,t_out_1,t_out_2,t_opt_1,t_opt_2\n"
    message = _load_error(path, header
                          + "0,10.0,3.0,0.0,1.0,1.0,2.0,2.0,30.0,30.0,70.0,70.0\n"
                          + "1,10.0,3.0,0.0,1.0,1.0,2.0,2.0,30.0,30.0,70.0, warm \n")
    assert message == (f"{path}: row 3, column 't_opt_2': could not parse "
                       f"'warm' as a number")
