"""Golden result corpus: every built-in scenario's ``--tiny`` result digest.

The digests are the ``result`` field of the ``"<scenario> --tiny"`` points
of :data:`CONTRACT` (``tests/test_behaviour_contract.py``), checked here
on their own so that a moved result names its scenario.  This is the
behaviour gate for refactors below the scenario layer: a change that
claims to leave simulated results alone must leave every digest alone.
"""

from test_behaviour_contract import CONTRACT, builtin_scenarios, tiny_points


def test_corpus_covers_every_builtin_scenario():
    """Every built-in scenario has its ``--tiny`` point, and every point
    runs a built-in scenario."""
    scenarios = {point.split()[0] for point in CONTRACT}
    assert set(tiny_points()) == scenarios == builtin_scenarios()


def test_tiny_results_match_golden_digests(contract_measured):
    mismatched = [name for name, point in sorted(tiny_points().items())
                  if contract_measured[point][0] != CONTRACT[point][0]]
    assert not mismatched, f"result dicts changed: {mismatched}"
