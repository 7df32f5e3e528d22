"""Every mutant of ``mutants.MUTANTS`` is killed by its check, which passes unpatched."""

import pytest

from mutants import MUTANTS


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_killed_by_its_check(name, monkeypatch, tmp_path):
    mutant = MUTANTS[name]
    mutant.check(tmp_path)
    with monkeypatch.context() as patch:
        for owner in mutant.owners:
            patch.setattr(owner, mutant.attribute, mutant.replacement)
        with pytest.raises(AssertionError):
            mutant.check(tmp_path)
    mutant.check(tmp_path)
