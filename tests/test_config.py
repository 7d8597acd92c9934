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
