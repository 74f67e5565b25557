"""Exception taxonomy.

Two families, kept deliberately distinct:

  * errors  -- bad user input (configuration, files, dimensions).  These are
    ValueError subclasses and are fair game to catch and report.
  * faults  -- internal control-logic contract violations (stepping a gated
    FMA bank).  A fault means a bug in the caller's sequencing, not bad data,
    so it is a RuntimeError.
"""


class ConfigError(ValueError):
    """Invalid user-supplied configuration or value."""


class ControlFault(RuntimeError):
    """Control-logic contract violation; indicates a sequencing bug."""


class ParamsFileError(ValueError):
    """Malformed, truncated, or inconsistent parameter file."""
