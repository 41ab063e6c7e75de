package geoip

import (
	"fmt"
	"net/netip"
)

// Registry names for the providers the paper's Table 2 reports. Keeping them
// as constants lets the analysis and the population model agree on spelling.
const (
	OVH        = "OVH"
	Comcast    = "Comcast"
	Keyweb     = "Keyweb"
	RoadRunner = "Road Runner"
	NetDirect  = "NetDirect"
	Virgin     = "Virgin Media"
	NOC        = "NetWork Operations Center"
	SBC        = "SBC"
	ComcorTV   = "Comcor-TV"
	TelecomIT  = "Telecom Italia"
	SoftLayer  = "SoftLayer Tech."
	FDCServers = "FDCservers"
	OCN        = "Open Computer Network"
	Tzulo      = "tzulo"
	Cosema     = "Cosema"
	Telefonica = "Telefonica"
	Jazztel    = "Jazz Telecom."
	FourRWEB   = "4RWEB"
	MTT        = "MTT Network"
	Verizon    = "Verizon"
	RomaniaDS  = "Romania DS"
	NIB        = "NIB"
)

// GenericISPName returns the name of the i-th long-tail commercial ISP.
func GenericISPName(i int) string { return fmt.Sprintf("Residential-%02d", i) }

// NumGenericISPs is how many long-tail commercial ISPs DefaultDB registers.
const NumGenericISPs = 40

var usCities = []Location{
	{"US", "New York"}, {"US", "Chicago"}, {"US", "Denver"}, {"US", "Seattle"},
	{"US", "Atlanta"}, {"US", "Houston"}, {"US", "Boston"}, {"US", "Miami"},
	{"US", "Phoenix"}, {"US", "Portland"}, {"US", "Dallas"}, {"US", "Detroit"},
	{"US", "San Jose"}, {"US", "Columbus"}, {"US", "Austin"}, {"US", "Memphis"},
	{"US", "Baltimore"}, {"US", "Louisville"}, {"US", "Milwaukee"}, {"US", "Tucson"},
	{"US", "Fresno"}, {"US", "Sacramento"}, {"US", "Kansas City"}, {"US", "Mesa"},
	{"US", "Omaha"}, {"US", "Raleigh"}, {"US", "Oakland"}, {"US", "Tulsa"},
	{"US", "Cleveland"}, {"US", "Wichita"}, {"US", "Arlington"}, {"US", "Tampa"},
}

// DefaultDB builds the registry used by the standard scenarios. Hosting
// providers get few /16 prefixes concentrated in one or two data-centre
// locations; commercial ISPs get many prefixes across many cities. This is
// what lets the analysis reproduce Table 3's contrast (OVH: few prefixes,
// few locations; Comcast: hundreds of prefixes and cities).
func DefaultDB() (*DB, error) {
	b := NewBuilder(netip.MustParseAddr("11.0.0.0"))

	// --- Hosting providers ---------------------------------------------
	// OVH: the paper observes 5-7 distinct /16s and 2-4 European locations.
	b.AddISP(OVH, Hosting, 7, []Location{
		{"FR", "Roubaix"}, {"FR", "Paris"}, {"ES", "Madrid"}, {"PL", "Warsaw"},
	})
	b.AddISP(Keyweb, Hosting, 3, []Location{{"DE", "Berlin"}})
	b.AddISP(NetDirect, Hosting, 2, []Location{{"DE", "Frankfurt"}})
	b.AddISP(NOC, Hosting, 3, []Location{{"US", "Scranton"}})
	b.AddISP(SoftLayer, Hosting, 4, []Location{{"US", "Dallas"}, {"US", "Seattle"}})
	b.AddISP(FDCServers, Hosting, 3, []Location{{"US", "Chicago"}})
	b.AddISP(Tzulo, Hosting, 2, []Location{{"US", "Chicago"}, {"US", "Los Angeles"}})
	b.AddISP(FourRWEB, Hosting, 2, []Location{{"RU", "Moscow"}})

	// --- Commercial ISPs -------------------------------------------------
	// Comcast: the paper sees publishers scattered over 139-269 /16s and
	// 129-400 locations. Give it a large, city-diverse footprint.
	b.AddISP(Comcast, Commercial, 320, usCities)
	b.AddISP(RoadRunner, Commercial, 160, usCities[8:24])
	b.AddISP(SBC, Commercial, 140, usCities[4:20])
	b.AddISP(Verizon, Commercial, 150, usCities[:16])
	b.AddISP(Virgin, Commercial, 80, []Location{
		{"GB", "London"}, {"GB", "Manchester"}, {"GB", "Birmingham"},
		{"GB", "Leeds"}, {"GB", "Glasgow"}, {"GB", "Liverpool"},
	})
	b.AddISP(ComcorTV, Commercial, 40, []Location{
		{"RU", "Moscow"}, {"RU", "Saint Petersburg"}, {"RU", "Novosibirsk"},
	})
	b.AddISP(TelecomIT, Commercial, 90, []Location{
		{"IT", "Rome"}, {"IT", "Milan"}, {"IT", "Naples"}, {"IT", "Turin"},
	})
	b.AddISP(OCN, Commercial, 90, []Location{
		{"JP", "Tokyo"}, {"JP", "Osaka"}, {"JP", "Nagoya"},
	})
	b.AddISP(Cosema, Commercial, 30, []Location{{"SE", "Stockholm"}, {"SE", "Gothenburg"}})
	b.AddISP(Telefonica, Commercial, 110, []Location{
		{"ES", "Madrid"}, {"ES", "Barcelona"}, {"ES", "Valencia"}, {"ES", "Seville"},
	})
	b.AddISP(Jazztel, Commercial, 60, []Location{
		{"ES", "Madrid"}, {"ES", "Barcelona"}, {"ES", "Malaga"},
	})
	b.AddISP(MTT, Commercial, 30, []Location{{"RU", "Moscow"}, {"BY", "Minsk"}})
	b.AddISP(RomaniaDS, Commercial, 40, []Location{
		{"RO", "Bucharest"}, {"RO", "Cluj-Napoca"},
	})
	b.AddISP(NIB, Commercial, 30, []Location{{"AU", "Sydney"}, {"AU", "Melbourne"}})

	// Long tail of residential providers for the 97% of ordinary users.
	tailCities := []Location{
		{"DE", "Munich"}, {"FR", "Lyon"}, {"NL", "Amsterdam"}, {"BR", "Sao Paulo"},
		{"CA", "Toronto"}, {"MX", "Mexico City"}, {"AR", "Buenos Aires"},
		{"IN", "Mumbai"}, {"PL", "Krakow"}, {"GR", "Athens"}, {"PT", "Lisbon"},
		{"TR", "Istanbul"}, {"KR", "Seoul"}, {"ZA", "Johannesburg"},
	}
	for i := 0; i < NumGenericISPs; i++ {
		locs := []Location{
			tailCities[i%len(tailCities)],
			tailCities[(i+3)%len(tailCities)],
			tailCities[(i+7)%len(tailCities)],
		}
		b.AddISP(GenericISPName(i), Commercial, 24, locs)
	}

	return b.Build()
}

// FakeHostingProviders lists the three hosting providers the paper observes
// fake publishers operating from (Section 3.3).
func FakeHostingProviders() []string {
	return []string{Tzulo, FDCServers, FourRWEB}
}
