"""Storage substrates: binary file formats, structural indexes, catalog."""
