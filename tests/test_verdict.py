"""The verdict builders: check(name, witness) and until_failure."""

from fuselab import fusion, gauge, invariants, modular, nimrep
from fuselab.verdict import Verdict, check, failed, passed, until_failure


def test_check_passes_exactly_when_there_is_no_witness():
    assert check("unit", None) == passed("unit")
    assert check("unit", "(b,c)=(1,1)") == failed("unit", "(b,c)=(1,1)")


def test_until_failure_ends_the_verdict_at_the_first_failure():
    resumed = []

    @until_failure
    def checks(first, second):
        yield "empty-scan", next(iter(()), None)  # a scan that finds nothing passes
        yield "first", first
        yield "second", second
        resumed.append(True)
        yield "third", None

    assert checks(None, None) == Verdict(
        (passed("empty-scan"), passed("first"), passed("second"), passed("third"))
    )
    resumed.clear()
    assert checks("w", None) == Verdict((passed("empty-scan"), failed("first", "w")))
    assert checks(None, "v") == Verdict(
        (passed("empty-scan"), passed("first"), failed("second", "v"))
    )
    assert resumed == []


def test_the_verifiers_keep_their_module_names_and_docstrings():
    # bench/tracer.py wraps the public functions whose __module__ is their module's
    for module, name in [
        (fusion, "verify_axioms"),
        (nimrep, "verify_nimrep"),
        (gauge, "validate_mu"),
        (modular, "verify_modular_data"),
        (invariants, "verify_invariant"),
        (gauge, "verify_phi_isomorphism"),
    ]:
        fn = getattr(module, name)
        assert (fn.__module__, fn.__name__) == (module.__name__, name) and fn.__doc__
