"""Run-configuration parsing, defaults, and round-trips."""

import json

import pytest

from tpnet import ConfigError, parse_config, serialize_config
from tpnet.config import LagSpec, RunConfig, config_to_dict, default_pairs, resolve_lag


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_minimal_config_defaults(tmp_path):
    path = _write(tmp_path, {"technology_panel": "t.csv", "product_panel": "p.csv"})
    cfg = parse_config(path)
    assert cfg.delta == 5
    assert cfg.samples == 10_000
    assert cfg.tier == "95"
    assert cfg.digits is None
    assert cfg.lags == (LagSpec(0),)


def test_parse_serialize_is_idempotent(tmp_path):
    path = _write(
        tmp_path,
        {
            "technology_panel": "t.csv",
            "product_panel": "p.csv",
            "delta": 3,
            "seed": 9,
            "lags": [{"delta_t": 10, "pairs": [[2002, 2012], [2007, 2017]]}],
        },
    )
    cfg = parse_config(path)
    out1 = tmp_path / "normalized1.json"
    serialize_config(cfg, out1)
    cfg2 = parse_config(out1)
    assert cfg2 == cfg
    out2 = tmp_path / "normalized2.json"
    serialize_config(cfg2, out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_keys_rejected(tmp_path):
    path = _write(
        tmp_path,
        {"technology_panel": "t", "product_panel": "p", "bogus": 1},
    )
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(path)


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, {"technology_panel": "t"})
    with pytest.raises(ConfigError, match="product_panel"):
        parse_config(path)


def test_pair_lag_mismatch_rejected():
    with pytest.raises(ConfigError, match=r"\(2011, 2013\)"):
        LagSpec(0, ((2011, 2013),))


def test_bad_tier_rejected():
    with pytest.raises(ConfigError, match="tier"):
        RunConfig("t", "p", tier="97")


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        RunConfig("t", "p", seed=-1)
    path = _write(
        tmp_path, {"technology_panel": "t", "product_panel": "p", "seed": -3}
    )
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path)
    assert RunConfig("t", "p", seed=0).seed == 0


def test_duplicate_lags_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig("t", "p", lags=(LagSpec(0), LagSpec(0)))


def test_default_pairs_match_reference_setup():
    years = range(2007, 2018)
    assert default_pairs(years, 5, 0) == ((2012, 2012), (2017, 2017))
    assert default_pairs(years, 5, 10) == ((2002, 2012), (2007, 2017))


def test_resolve_lag_keeps_explicit_pairs():
    lag = LagSpec(0, ((2011, 2011),))
    assert resolve_lag(lag, range(2007, 2018), 5) is lag
    derived = resolve_lag(LagSpec(0), range(2007, 2018), 5)
    assert derived.pairs == ((2012, 2012), (2017, 2017))


def test_config_to_dict_round_trips_lags():
    cfg = RunConfig(
        "t", "p", lags=(LagSpec(0, ((2012, 2012),)), LagSpec(10, ((2002, 2012),)))
    )
    data = config_to_dict(cfg)
    assert data["lags"] == [
        {"delta_t": 0, "pairs": [[2012, 2012]]},
        {"delta_t": 10, "pairs": [[2002, 2012]]},
    ]
