"""Run-configuration parsing, defaults, and round-trips."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from tpnet import ConfigError, parse_config, serialize_config
from tpnet.cli import main
from tpnet.config import LagSpec, RunConfig, config_to_dict
from tpnet.panels import ActivityPanel
from tpnet.pipeline import resolve_lags


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


def test_negative_lag_rejected(tmp_path):
    # products at t2 follow technologies at t1, so t2 >= t1
    with pytest.raises(ConfigError, match="delta_t must be >= 0, got -1"):
        LagSpec(-1)
    path = _write(
        tmp_path,
        {
            "technology_panel": "t",
            "product_panel": "p",
            "lags": [{"delta_t": -1, "pairs": [[2011, 2010]]}],
        },
    )
    with pytest.raises(ConfigError, match="delta_t must be >= 0, got -1"):
        parse_config(path)
    assert LagSpec(0, ((2011, 2011),)).delta_t == 0


def test_duplicate_lags_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig("t", "p", lags=(LagSpec(0), LagSpec(0)))


@pytest.mark.parametrize(
    "lags", [({"delta_t": 0},), "ab", 5, [LagSpec(0), (0, ())]],
    ids=["dicts", "string", "integer", "mixed"],
)
def test_lags_must_be_lag_specs(lags):
    with pytest.raises(ConfigError, match="lags must be a list or tuple of LagSpec"):
        RunConfig("t.csv", "p.csv", lags=lags)


def test_duplicate_pairs_rejected():
    # one pair twice would intersect two samplings of the same windows
    with pytest.raises(ConfigError, match=re.escape("pair (2011, 2011) repeats in lag 0")):
        LagSpec(0, ((2011, 2011), (2011, 2011)))


def _resolve(*lags):
    """``resolve_lags`` with delta 5 on a product panel of 2007-2017 and a
    technology panel reaching back far enough for lag 10's windows."""
    def panel(kind, years):
        years = tuple(years)
        return ActivityPanel(kind, ("A",), ("x",), years, {y: np.ones((1, 1)) for y in years})

    cfg = RunConfig("t", "p", delta=5, lags=lags)
    return resolve_lags(cfg, panel("technology", range(1998, 2018)),
                        panel("product", range(2007, 2018)))


def test_default_pairs_match_reference_setup():
    same_year, ten_years = _resolve(LagSpec(0), LagSpec(10))
    assert same_year.pairs == ((2012, 2012), (2017, 2017))
    assert ten_years.pairs == ((2002, 2012), (2007, 2017))


def test_resolve_lag_keeps_explicit_pairs():
    lag = LagSpec(0, ((2011, 2011),))
    assert _resolve(lag)[0] is lag
    (derived,) = _resolve(LagSpec(0))
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


_MALFORMED = [
    *(
        ({field: value}, f"{field} must be an integer")
        for field in ("delta", "samples", "seed")
        for value in ("5", None, 5.7, True)
    ),
    *(({"digits": value}, "digits must be an integer") for value in ("2", 2.0, True)),
    ({"technology_panel": 3}, "technology_panel must be a string"),
    ({"product_panel": None}, "product_panel must be a string"),
    ({"output_dir": ["out"]}, "output_dir must be a string"),
    ({"lags": [{"delta_t": 0, "pairs": [[2011.0, 2011]]}]}, "t1 must be an integer"),
    ({"lags": [{"delta_t": 0, "pairs": [[2011, "2011"]]}]}, "t2 must be an integer"),
    ({"lags": [{"delta_t": "x"}]}, "delta_t must be an integer"),
    ({"lags": [{"delta_t": 0.0, "pairs": [[2011, 2011]]}]}, "delta_t must be an integer"),
    ({"lags": [{"delta_t": 0, "pairs": [[2011]]}]}, "pair must be two years"),
    ({"lags": [{"delta_t": 0, "pairs": 2011}]}, "pairs must be"),
]


@pytest.mark.parametrize("override, message", _MALFORMED, ids=repr)
def test_malformed_value_is_a_config_error(tmp_path, override, message):
    payload = {"technology_panel": "t.csv", "product_panel": "p.csv",
               "output_dir": str(tmp_path / "out"), **override}
    path = _write(tmp_path, payload)
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
    result = CliRunner().invoke(main, ["ingest", "--config", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and message in result.output
    assert len(result.output.splitlines()) == 1
    assert not (tmp_path / "out").exists()


_BASE = {"technology_panel": "t.csv", "product_panel": "p.csv"}
_OUT_OF_RANGE = [
    ({**_BASE, "delta": 0}, "delta must be >= 1, got 0"),
    ({**_BASE, "samples": 0}, "samples must be >= 1, got 0"),
    ({**_BASE, "samples": 2**31},
     re.escape("samples must be < 2**31, the int32 null counts' bound, got 2147483648")),
    ({**_BASE, "digits": 0}, "digits must be >= 1, got 0"),
    ({**_BASE, "lags": []}, "at least one lag must be configured"),
    ({**_BASE, "lags": {"delta_t": 0}}, "lags must be a list$"),
    ({**_BASE, "lags": [{"pairs": [[2011, 2011]]}]}, "each lag needs a delta_t"),
    ({**_BASE, "lags": [{"delta_t": 0, "window": 3}]}, re.escape("unknown lag keys ['window']")),
    ([_BASE], "config must be a JSON object"),
]


@pytest.mark.parametrize("payload, message", _OUT_OF_RANGE, ids=repr)
def test_out_of_range_or_misshapen_config_is_rejected(tmp_path, payload, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_write(tmp_path, payload))


def test_largest_sample_count_is_accepted(tmp_path):
    # parsed only: no run draws at this N
    cfg = parse_config(_write(tmp_path, {**_BASE, "samples": 2**31 - 1}))
    assert cfg.samples == 2**31 - 1


def test_lenient_values_keep_their_meaning(tmp_path):
    path = _write(tmp_path, {"technology_panel": "t", "product_panel": "p",
                             "tier": 95, "digits": None})
    cfg = parse_config(path)
    assert cfg.tier == "95"
    assert cfg.digits is None
    numpy_lag = LagSpec(np.int64(2), ((np.int64(2009), 2011),))
    numpy_cfg = RunConfig("t", "p", seed=np.int64(3), lags=(numpy_lag,))
    assert type(numpy_cfg.seed) is int and numpy_cfg.seed == 3
    assert numpy_cfg.lags == (LagSpec(2, ((2009, 2011),)),)
    assert RunConfig("t", "p", lags=[LagSpec(0)]).lags == (LagSpec(0),)
    assert all(type(t) is int for t in numpy_cfg.lags[0].pairs[0])
    assert config_to_dict(numpy_cfg) == json.loads(json.dumps(config_to_dict(numpy_cfg)))


def test_non_utf8_config_names_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"technology_panel": "caf\xe9.csv", "product_panel": "p.csv"}')
    with pytest.raises(ConfigError, match="latin1.json: not UTF-8 text"):
        parse_config(path)


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_names_the_file(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(ConfigError, match=re.escape(f"{path}: cannot read")):
        parse_config(path)
