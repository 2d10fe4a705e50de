package main

// Example runs the three competing agents and pins what they print:
// the join/leave log, each phase's per-agent throughput, concurrency
// and Jain index, and the concurrency timeline. The engine is seeded,
// so a change that moves the fairness story fails here.
func Example() {
	main()
	// Output:
	// t=0s: alice joins (cc=2 p=1 q=1)
	// t=250s: bob joins (cc=2 p=1 q=1)
	// t=500s: carol joins (cc=2 p=1 q=1)
	// t=750s: carol leaves
	//
	// alice alone (t=[150,250)):
	//   alice   794.7 Mbps at concurrency   38
	//
	// alice + bob (t=[400,500)):
	//   alice   495.4 Mbps at concurrency   26
	//   bob     485.6 Mbps at concurrency   26
	//   Jain fairness index: 1.000
	//
	// all three (t=[650,750)):
	//   alice   313.0 Mbps at concurrency   33
	//   bob     271.0 Mbps at concurrency   28
	//   carol   325.7 Mbps at concurrency   32
	//   Jain fairness index: 0.994
	//
	// carol left (t=[900,1000)):
	//   alice   505.0 Mbps at concurrency   26
	//   bob     474.0 Mbps at concurrency   24
	//   Jain fairness index: 0.999
	//
	// concurrency timeline:
	// 66
	// |                                                      a
	// |   aa                                   aa            aa
	// |  a a   aa                              aaa           aa
	// |   aa   aaa       aa                    a a     aa    a a
	// |  a a   a a   a   aabbb               cc  a    aaa   bbba
	// |  a  aaa  aaaaaaaaabbabb             caccbb    a acccbbba    aa
	// | a   aa    aa   aa b a bb         aa caccccccccbbccccc  bb  b a
	// | a                 b aaabbbbbbbbbbbbac b   abbccccb bb  bbbbbbbbbbbaaab
	// | a                 b  aaaaabbabbbabbccbb   aabb c bbb    abb  bbbbbbbbba
	// |aa                b                 cbb     aa     a      aa
	// |a                 b                 c
	// |a                bb                cc
	// 1  t=[3, 999]
	//   a = alice
	//   b = bob
	//   c = carol
}
