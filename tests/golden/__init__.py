"""Golden behaviour pins, regenerated explicitly with ``make golden``."""
