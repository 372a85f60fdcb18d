import warnings

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis's patch module before its report hook does.

    On a failing hypothesis test that hook imports hypothesis.extra._patching,
    which, where libcst is installed, warns that mypy_extensions.TypedDict is
    deprecated. Under -W error that warning escapes the hook as an
    INTERNALERROR and ends the session, so the tests after it never run.
    Importing the module here first, with that one warning ignored, leaves
    the hook nothing to warn about. Only a failing call pays for the import.
    """
    if call.excinfo is None:
        return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated")
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass
