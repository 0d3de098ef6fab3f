"""`python -m repro.campaign list` covers every registered scenario."""

from repro.campaign.__main__ import main
from repro.campaign.registry import all_scenarios


def test_list_shows_every_scenario_with_params_and_sweeps(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name, sc in all_scenarios().items():
        assert name in out, f"scenario {name} missing from `campaign list`"
        for p in sc.params:
            # Each param appears with its type and default.
            line = f"{p.name}: {p.type.__name__} = {p.default!r}"
            assert line in out, f"{name}: param line {line!r} missing"
            if p.choices:
                assert f"choices={list(p.choices)}" in out
        if sc.sweep:
            for axis, values in sc.sweep.items():
                assert f"{axis}={list(values)}" in out, \
                    f"{name}: sweep axis {axis} missing"


def test_list_brief_shows_only_names(capsys):
    assert main(["list", "--brief"]) == 0
    out = capsys.readouterr().out
    assert "default sweep" not in out
    for name in all_scenarios():
        assert name in out


def test_every_registered_tag_is_listable(capsys):
    tags = sorted({t for sc in all_scenarios().values() for t in sc.tags})
    assert tags, "no scenario carries a tag — weak fixture"
    for tag in tags:
        assert main(["list", "--tag", tag, "--brief"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line}
        expected = {name for name, sc in all_scenarios().items()
                    if tag in sc.tags}
        assert listed == expected, f"--tag {tag}: {listed} != {expected}"


def test_tag_filter_shows_tags_in_the_listing(capsys):
    assert main(["list", "--tag", "traffic"]) == 0
    out = capsys.readouterr().out
    assert "[traffic" in out
    assert "bursting_load" in out


def test_unknown_tag_fails_and_names_the_known_tags(capsys):
    assert main(["list", "--tag", "nonexistent-tag"]) == 1
    err = capsys.readouterr().err
    assert "known tags" in err
    assert "traffic" in err
