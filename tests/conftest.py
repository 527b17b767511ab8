"""Test-session set-up."""

import warnings

# When a property test fails, Hypothesis's pytest plugin imports its patch
# writer, which imports libcst; libcst's use of mypy_extensions.TypedDict
# raises a DeprecationWarning there, which filterwarnings = ["error"] turns
# into an INTERNALERROR that ends the session before the other test files
# run.  Importing the patch writer here first, with the DeprecationWarnings
# of this one import silenced, lets a failing property test fail alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin writes no patch
        pass
