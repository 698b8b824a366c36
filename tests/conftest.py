"""Shared test setup.

When a hypothesis property fails, its pytest plugin imports
``hypothesis.extra._patching`` to offer a patch.  That module imports
libcst where it is installed, and libcst warns ``DeprecationWarning`` on
import; under ``-W error`` the warning escapes the plugin, which catches
only ``ImportError``, and the run ends in an INTERNALERROR instead of the
falsifying example.  Importing the module once here, with only that
third-party warning ignored, lets a failing property report normally;
every warning of this package stays an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
