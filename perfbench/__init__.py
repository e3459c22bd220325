"""Host-time benchmark of the simulator: see NOTES.md."""
