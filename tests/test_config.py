import pytest

from qfsplit.config import Config, ConfigError, load_config, resolve_config


def test_defaults():
    config = Config()
    assert config.witt_length_cap == 8


def test_load_and_merge(tmp_path):
    path = tmp_path / "qfsplit.conf"
    path.write_text("# comment\nwitt_length_cap=4\n")
    config = load_config(str(path))
    assert config.witt_length_cap == 4
    merged = config.merged(witt_length_cap=2)
    assert merged.witt_length_cap == 2
    assert config.merged(witt_length_cap=None).witt_length_cap == 4


def test_bad_key(tmp_path):
    path = tmp_path / "bad.conf"
    for text in ("nope = 1\n", "candidate_slack = 7\n", "truncation_degree = 12\n"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path))


def test_bad_value(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("witt_length_cap = many\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_env_resolution(tmp_path, monkeypatch):
    path = tmp_path / "env.conf"
    path.write_text("witt_length_cap = 12\n")
    monkeypatch.setenv("QFSPLIT_CONFIG", str(path))
    assert resolve_config().witt_length_cap == 12
    monkeypatch.delenv("QFSPLIT_CONFIG")
    assert resolve_config().witt_length_cap == 8
