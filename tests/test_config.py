"""Run configuration: the seven fields, their MDLAB_ names, and rejection of the rest."""

from __future__ import annotations

from dataclasses import fields

import pytest

from mdlab.config import DEFAULTS, RunConfig, resolve_config

FIELDS = ("tol", "max_iter", "ball_cap", "quad_factor", "window_radius",
          "success_residual", "seed")
DELETED = ("psd_tol", "bfs_horizon", "coeff_cutoff", "cert_tol", "rep_tol",
           "verify_cap", "verify_samples", "interior_margin")


def test_fields():
    assert tuple(f.name for f in fields(RunConfig)) == FIELDS
    assert [k for k, _ in DEFAULTS.header_items()] == list(FIELDS)


def test_every_field_has_an_environment_name():
    for name in FIELDS:
        raw = "0.5" if isinstance(getattr(DEFAULTS, name), float) else "7"
        cfg = resolve_config(env={f"MDLAB_{name.upper()}": raw})
        assert getattr(cfg, name) == type(getattr(DEFAULTS, name))(raw)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_fail_loudly(name):
    key = f"MDLAB_{name.upper()}"
    with pytest.raises(ValueError, match=f"unknown configuration variable {key}"):
        resolve_config(env={key: "1e-9"})
    with pytest.raises(ValueError, match=f"unknown configuration field {name}"):
        resolve_config(cli_overrides={name: 1}, env={})


def test_path_conveniences_pass_through():
    assert resolve_config(env={"MDLAB_GROUP": "g.json", "MDLAB_OUT": "o"}) == DEFAULTS


@pytest.mark.parametrize("name,raw", [
    ("tol", "nan"), ("tol", "inf"), ("tol", "-1"), ("tol", "0"),
    ("max_iter", "-1"),
    ("ball_cap", "0"), ("ball_cap", "-5"),
    ("quad_factor", "0"), ("quad_factor", "-3"),
    ("window_radius", "-1"),
    ("success_residual", "nan"), ("success_residual", "inf"),
    ("success_residual", "-0.5"),
])
def test_out_of_range_values_name_their_source(name, raw):
    key = f"MDLAB_{name.upper()}"
    with pytest.raises(ValueError, match=f"bad value for {key}: "):
        resolve_config(env={key: raw})
    value = type(getattr(DEFAULTS, name))(raw)
    flag = "--" + name.replace("_", "-")
    with pytest.raises(ValueError, match=f"bad value for {flag}: "):
        resolve_config(cli_overrides={name: value}, env={})


@pytest.mark.parametrize("name,raw", [
    ("tol", "1e-300"), ("max_iter", "0"), ("ball_cap", "1"), ("quad_factor", "1"),
    ("window_radius", "0"), ("success_residual", "0"), ("seed", "-7"),
])
def test_range_edges_are_accepted(name, raw):
    cfg = resolve_config(env={f"MDLAB_{name.upper()}": raw})
    assert getattr(cfg, name) == type(getattr(DEFAULTS, name))(raw)
