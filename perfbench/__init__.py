"""End-to-end and per-layer benchmark of opfkit; see README.md."""
