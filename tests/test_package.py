"""The package's public names."""

from __future__ import annotations

import lambdacone


def test_every_export_resolves_once():
    names = lambdacone.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(lambdacone, name, None) is not None, name
