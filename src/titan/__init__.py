"""Multi-task traffic incident duration prediction with grouped
temporal feature learning."""
