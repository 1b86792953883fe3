"""serrelab: exact verification lab for Serre-functor periodicity on finite
lattices, with a type-A Cambrian engine and the polygon geometric model."""
