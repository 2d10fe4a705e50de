package core

// AlgorithmName returns the underlying search algorithm's name.
func (a *Agent) AlgorithmName() string { return a.search.Name() }
