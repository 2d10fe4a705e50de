package netsim

import "sort"

// LossModel returns the current loss model.
func (n *Network) LossModel() LossModel { return n.loss }

// Resource returns a copy of the resource with the given ID.
func (n *Network) Resource(id string) (Resource, bool) {
	i, ok := n.index[id]
	if !ok {
		return Resource{}, false
	}
	return n.resList[i], true
}

// Nodes returns the sorted node names.
func (t *Topology) Nodes() []string {
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BuildNetwork constructs a Network containing every edge as a Link
// resource.
func (t *Topology) BuildNetwork() *Network {
	n := New()
	for _, r := range t.Resources() {
		n.AddResource(r)
	}
	return n
}
