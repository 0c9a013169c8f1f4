"""The mutant table of mutants.py still applies to the sources; the mutation
run itself is `python3 tests/mutants.py`, outside this suite."""
import mutants


def test_each_mutant_old_text_occurs_exactly_once():
    assert mutants.stale() == []
