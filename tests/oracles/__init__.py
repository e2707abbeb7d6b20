"""Independent reference implementations the library is checked against."""
