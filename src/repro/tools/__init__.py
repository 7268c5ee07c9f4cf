"""Command-line tools: compile, disassemble, run, and simulate programs.

Installed as the ``straight`` console script (see pyproject.toml), or run
with ``python -m repro.tools.cli``.
"""
